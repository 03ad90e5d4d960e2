"""Shared test helpers.

Expected values in this suite are frozen: each was computed by hand (or by an
independent one-off calculation) before the implementation produced it, so a
regression cannot silently redefine the oracle.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

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


BENCH_CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"


@pytest.fixture(scope="session")
def heavy_twins() -> dict:
    """{name: spec} of the exact twins of the heavy report_float states of
    ``bench/corpus.py`` (dense order 6 and 7 over n = 2, order 4 over n = 3),
    built as its ``exact_twin`` builds them.  The corpus is loaded by path,
    since ``bench/`` is not a package, and registered while it runs, since
    its dataclasses look their module up; it is loaded when a test first
    asks for the twins, not while the suite is collected."""
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, corpus)
        spec.loader.exec_module(corpus)
    return {name: corpus.sub_cuntz(n, m, z) for name, (n, m, z) in corpus.heavy_float().items()}
