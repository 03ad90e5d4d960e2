"""Mutated spec files end with exit 0, 1 or 3, never with a traceback.

Each example takes one spec from tests/golden/specs/ and changes it once: it
drops a key, adds an unknown key, or replaces a value by a value of another
JSON type.  The replacement integers are at most 4, so no mutant asks for
exponential work (a sub_cuntz order or a progression length of 4 is cheap).
"""

import contextlib
import copy
import io
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuntzlab.cli import run

SPECS = {p.stem: json.loads(p.read_text()) for p in sorted((Path(__file__).parent / "golden" / "specs").glob("*.json"))}

# one or more values of each JSON type
VALUES = [None, True, False, -1, 0, 2, 4, 0.5, "x", "1/2", "thue_morse", [], [1], [[1, 0]], [[], 0], {},
          {"pre": [], "per": [1]}, {"family": "cuntz", "z": [1, 0]}]


def _kind(v) -> str:
    return "number" if type(v) in (int, float) else type(v).__name__


def _paths(obj, path=()):
    """The path of every value nested in obj, containers before their items."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


def _at(obj, path):
    for k in path:
        obj = obj[k]
    return obj


@st.composite
def mutants(draw):
    spec = copy.deepcopy(SPECS[draw(st.sampled_from(sorted(SPECS)))])
    paths = list(_paths(spec))
    keys = [p for p in paths if isinstance(p[-1], str)]
    how = draw(st.sampled_from(["drop", "add", "swap"] if keys else ["add", "swap"]))
    if how == "drop":
        path = draw(st.sampled_from(keys))
        del _at(spec, path[:-1])[path[-1]]
    elif how == "add":
        objects = [()] + [p for p in paths if isinstance(_at(spec, p), dict)]
        _at(spec, draw(st.sampled_from(objects)))["zz"] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    else:
        path = draw(st.sampled_from(paths))
        old = _at(spec, path)
        new = draw(st.sampled_from([v for v in VALUES if _kind(v) != _kind(old)]))
        _at(spec, path[:-1])[path[-1]] = copy.deepcopy(new)
    return spec


@settings(max_examples=500)
@given(spec=mutants())
# malformed specs that once ended in a traceback
@example(spec={"family": "prefix_code", "n": 2, "code": [], "z": []})
def test_mutated_spec_exits_cleanly(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["report", str(path), "--strict", "--max-level", "3"])
    assert code in (0, 1, 3), spec
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, spec
