"""Shared test helpers.

Expected values in this suite are frozen: each was computed by hand (or by an
independent one-off calculation) before the implementation produced it, so a
regression cannot silently redefine the oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import settings

from cuntzlab import QQi

# property tests draw the same examples on every run, keep no example
# database, and have no per-example deadline, so a slow or busy machine
# cannot fail them on timing
settings.register_profile("cuntzlab", derandomize=True, deadline=None, database=None)
settings.load_profile("cuntzlab")


def q(re, im=0):
    """Gaussian rational shorthand accepting ints, Fractions, or 'p/q' strings."""
    return QQi(Fraction(re), Fraction(im))


def fr(*args):
    return Fraction(*args)


@pytest.fixture
def spec_file(tmp_path):
    """Write a JSON spec to a temp file and return its path as a string."""
    import json

    counter = [0]

    def write(obj):
        counter[0] += 1
        p = tmp_path / f"spec{counter[0]}.json"
        p.write_text(json.dumps(obj))
        return str(p)

    return write
