"""Reading state and representation specs, and the JSON of what they share.

Scalars travel as ``[re, im]`` pairs whose parts are integers, rational
strings like ``"3/5"``, or floats; a bare number abbreviates a real scalar.
Integer and string parts stay exact (Gaussian rationals); a float with a
fractional part is accepted only in float mode, so exactness is never lost
silently.  The mode is "auto" (exact, refusing inexact floats) or "float"
(every scalar becomes a complex float).

Each spec object is read against one key table (``_STATES`` by family,
``_REPS`` by kind, and ``_ELEMENT``, ``_MONOMIAL``, ``_EPWORD``,
``_LAZY_WORD`` nested in them); unknown keys are rejected.  State specs are
discriminated by ``"family"`` (keys in brackets are optional)::

    {"n": 2, "family": "cuntz", "z": [[1, 0], [0, 0]]}          # [n], equal to len(z)
    {"family": "sub_cuntz", "m": 2, "n": 2, "z": [...]}         # n^m entries, lex order
    {"family": "geometric_progression", "k": 2, "n": 2, "z": [...]}
    {"family": "prefix_code", "n": 2, "code": [[1], [2, 1]], "z": [...]}
    {"family": "induced_product", "n": 2, ["pre": [[...], ...]], "rep": [[...], ...]}
    {"family": "shift", "n": 2, "word": {["pre": [...]], "per": [1, 2]}}
    {"family": "vector", "rep": {...}, "key": ...}
    {"family": "sandwich", "base": {...}, "terms": [[c, {...element}], ...],
     ["equivalent_to_cuntz": [...]]}
    {"family": "sandwich_series"}
    {"family": "gauge", "base": {...}, "g": [[..], ..]}
    {"family": "mixture", "components": [{...}, ...], "weights": [...]}

A ``word`` may also be a lazy preset ``{"preset": "thue_morse",
["horizon": 256]}``; both presets are binary, so n must be 2.  A vector
``key`` is a word for a shift representation, ``[k, m]`` on the grid and
``[prefix, offset]`` on a lazy word.  An element is ``{"n": 2, "terms":
[{"J": [...], "K": [...], ["re": 0], ["im": 0]}, ...]}``.  Representation
specs are discriminated by ``"kind"``::

    {"kind": "shift", ["n": 2], "word": {...}}    # n defaults to max(2, letters)
    {"kind": "grid", "n": 2}
    {"kind": "lazy", ["n": 2], "preset": "thue_morse", ["horizon": 256]}

A spec nested too deeply for the readers' recursion is refused with a
SchemaError.  Results are rendered by the CLI; this module keeps only the
JSON that specs and results share (``scalar_to_json``, ``element_to_json``)
and ``dump_json``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isfinite
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import CuntzLabError, GateFailed, SchemaError
from .moments import (
    MomentFunctional,
    make_cuntz,
    make_geometric_progression,
    make_induced_product,
    make_mixture,
    make_prefix_code_state,
    make_split_series_sandwich,
    make_sub_cuntz,
    positivity_check,
    transform_gauge,
    transform_sandwich,
)
from .scalars import QQi, format_float
from .shiftrep import GridRepresentation, LazyShiftRepresentation, ShiftRepresentation, vector_state
from .symalg import CuntzElement
from .words import LAZY_PRESETS, EventuallyPeriodicWord, check_word

__all__ = [
    "scalar_from_json", "scalar_to_json", "word_from_json", "epword_from_json",
    "element_from_json", "element_to_json", "state_from_spec", "rep_from_spec", "parse_spec", "dump_json",
]

# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def _part_from_json(p, where: str):
    """A real part: (Fraction, True) when exact, (float, False) otherwise."""
    if isinstance(p, bool):
        raise SchemaError(f"{where}: booleans are not scalars")
    if isinstance(p, int):
        return Fraction(p), True
    if isinstance(p, str):
        try:
            return Fraction(p), True
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"{where}: bad rational string {p!r}") from e
    if isinstance(p, float):
        if not isfinite(p):
            raise SchemaError(f"{where}: {p} is not a finite number")
        if p == int(p):
            return Fraction(int(p)), True
        return p, False
    raise SchemaError(f"{where}: expected a number or rational string, got {type(p).__name__}")


def scalar_from_json(v, mode: str = "auto", where: str = "scalar"):
    """Parse ``[re, im]`` (or a bare real) honoring the arithmetic mode.

    mode "float" converts everything to complex; "auto" stays exact and
    refuses an inexact float, pointing at the float flag.
    """
    if isinstance(v, (int, float, str)) and not isinstance(v, bool):
        pair = [v, 0]
    elif isinstance(v, (list, tuple)) and len(v) == 2:
        pair = list(v)
    else:
        raise SchemaError(f"{where}: expected [re, im] or a bare real number, got {v!r}")
    (re, re_exact) = _part_from_json(pair[0], where)
    (im, im_exact) = _part_from_json(pair[1], where)
    exact = re_exact and im_exact
    if mode == "float":
        return complex(re, im)
    if exact:
        return QQi(re, im)
    raise SchemaError(
        f"{where}: value {v!r} is not exactly representable; pass --mode float to accept it"
    )


_INEXACT = (complex, float)


def _fraction_to_json(f: Fraction):
    return f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def scalar_to_json(x):
    """Render a scalar as ``[re, im]`` with exact parts kept exact, and the
    parts of an inexact one as the floats their ``format_float`` renderings
    read back as.  A complex or float is tested first, and each part takes
    one pass: its 12-significant-digit rendering read back, a -0.0 made 0.0
    (a rounding never turns a nonzero part into a zero)."""
    if type(x) not in _INEXACT:
        if isinstance(x, QQi):
            return [_fraction_to_json(x.re), _fraction_to_json(x.im)]
        if isinstance(x, (int, Fraction)):
            return [_fraction_to_json(Fraction(x)), 0]
        x = complex(x)
    return [float(f"{x.real:.12g}") or 0.0, float(f"{x.imag:.12g}") or 0.0]


# ---------------------------------------------------------------------------
# Words, elements, and the spec tables of states and representations
# ---------------------------------------------------------------------------


class _Key(NamedTuple):
    """A spec key: ``read(value, path, r)`` parses its value (``r`` holds ``mode``
    and the ``args`` read so far); a default of ``...`` marks it required."""

    read: Callable
    default: object = ...


class _Labelled(SchemaError):
    """A SchemaError whose message already names the spec it arose in."""


def _read_keys(obj, table: dict, mode: str, where: str = "", skip: str | None = None) -> dict:
    """The values of the object at path ``where``, read key by key in table order."""
    if not isinstance(obj, dict):
        raise SchemaError(f'"{where}" must be an object, got {obj!r}')
    prefix = f"{where}." if where else ""
    for k in obj:
        if k not in table and k != skip:
            raise SchemaError(f'unknown key "{prefix}{k}" (known: {", ".join(table) or "none"})')
    r = SimpleNamespace(mode=mode, args={})
    for key, (read, default) in table.items():
        if key in obj:
            r.args[key] = read(obj[key], prefix + key, r)
        elif default is ...:
            raise SchemaError(f'missing required field "{prefix}{key}"')
        else:
            r.args[key] = default
    return r.args


def _from_spec(obj, field: str, table: dict, noun: str, mode: str):
    """Read a spec discriminated by ``field`` and build it; every error names the spec."""
    if not isinstance(obj, dict) or field not in obj:
        raise _Labelled(f'{noun}: expected an object with a "{field}" field')
    name = obj[field]
    if not isinstance(name, str) or name not in table:
        raise _Labelled(f"{noun}: unknown {field} {name!r}")
    keys, build = table[name]
    try:
        return build(_read_keys(obj, keys, mode, skip=field))
    except _Labelled:
        raise
    except CuntzLabError as e:
        raise _Labelled(f"{noun} ({name}): {e}") from e


def _valid(ok, what: str):
    """The reader that passes a value on when ``ok(value)`` holds."""

    def read(v, path, r=None):
        if not ok(v):
            raise SchemaError(f'"{path}" must be {what}, got {v!r}')
        return v

    return read


def _int(low: int):
    return _valid(lambda v: type(v) is int and v >= low, f"an integer >= {low}")


def _each(read):
    """The reader of an array whose items ``read`` parses."""
    return lambda v, path, r: [read(x, f"{path}[{i}]", r) for i, x in enumerate(_array(v, path))]


_array = _valid(lambda v: isinstance(v, (list, tuple)), "an array")
_scalars = _each(lambda v, path, r: scalar_from_json(v, r.mode, path))
_letters = lambda v, path, r: word_from_json(v, path)  # noqa: E731
_state = lambda v, path, r: state_from_spec(v, r.mode)  # noqa: E731
_raw = lambda v, path, r: v  # noqa: E731
_preset = _valid(lambda v: isinstance(v, str) and v in LAZY_PRESETS, "one of " + ", ".join(sorted(LAZY_PRESETS)))


def _lazy_word(a: dict, n):
    if n != 2:
        raise SchemaError(f'"n" must be 2 for the binary preset {a["preset"]!r}, got {n!r}')
    return LAZY_PRESETS[a["preset"]](a["horizon"])


def _word(v, path, r):
    """An eventually periodic word or a lazy preset over the alphabet of the spec's ``n``."""
    n = r.args.get("n")
    if isinstance(v, dict) and "preset" in v:
        return _lazy_word(_read_keys(v, _LAZY_WORD, r.mode, path), n)
    return epword_from_json(v, n, path)


def _vector_key(v, path, r):
    rep = r.args["rep"]
    if type(rep) is ShiftRepresentation:
        return epword_from_json(v, rep.n, path)
    lazy = isinstance(rep, LazyShiftRepresentation)
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise SchemaError("lazy keys are [prefix, offset]" if lazy else "grid keys are [k, m]")
    if lazy:
        return check_word(word_from_json(v[0], f"{path}[0]"), rep.n), _int(0)(v[1], f"{path}[1]", r)
    return rep.check_key(tuple(v))


def _term(t, path, r):
    if not (isinstance(t, (list, tuple)) and len(t) == 2):
        raise SchemaError(f"{path} must be [coefficient, element]")
    return scalar_from_json(t[0], r.mode, path + "[0]"), element_from_json(t[1], r.mode, path + "[1]")


def _monomial(t, path, r):
    a = _read_keys(t, _MONOMIAL, r.mode, path)
    return (a["J"], a["K"]), scalar_from_json([a["re"], a["im"]], r.mode, path)


def _cuntz(a):
    if a["n"] is not None and a["n"] != len(a["z"]):
        raise SchemaError(f'"n" must equal the length of "z" ({len(a["z"])}), got {a["n"]}')
    return make_cuntz(a["z"])


def _shift_state(a):
    rep = ShiftRepresentation(a["word"])
    return vector_state(rep, rep.generator_key())


# The build functions name the constructors at call time, so a tracer that rebinds
# them sees every construction.
_EPWORD = {"pre": _Key(_letters, ()), "per": _Key(_letters)}
_LAZY_WORD = {"preset": _Key(_preset), "horizon": _Key(_int(1), 256)}
_MONOMIAL = {"J": _Key(_letters), "K": _Key(_letters), "re": _Key(_raw, 0), "im": _Key(_raw, 0)}
_ELEMENT = {"n": _Key(_int(2)), "terms": _Key(_each(_monomial))}
_STATES = {
    "cuntz": ({"n": _Key(_int(2), None), "z": _Key(_scalars)}, _cuntz),
    "sub_cuntz": ({"m": _Key(_int(1)), "n": _Key(_int(2)), "z": _Key(_scalars)},
                  lambda a: make_sub_cuntz(a["m"], a["z"], a["n"])),
    "geometric_progression": ({"k": _Key(_int(1)), "n": _Key(_int(2)), "z": _Key(_scalars)},
                              lambda a: make_geometric_progression(a["k"], a["z"], a["n"])),
    "prefix_code": ({"n": _Key(_int(2)), "code": _Key(_each(_letters)), "z": _Key(_scalars)},
                    lambda a: make_prefix_code_state(a["code"], a["z"], a["n"])),
    "induced_product": ({"n": _Key(_int(2)), "pre": _Key(_each(_scalars), ()), "rep": _Key(_each(_scalars))},
                        lambda a: make_induced_product(a["pre"], a["rep"], a["n"])),
    "shift": ({"n": _Key(_int(2)), "word": _Key(_word)}, _shift_state),
    "vector": ({"rep": _Key(lambda v, path, r: rep_from_spec(v)), "key": _Key(_vector_key)},
               lambda a: vector_state(a["rep"], a["key"])),
    "sandwich": ({"base": _Key(_state), "terms": _Key(_each(_term)), "equivalent_to_cuntz": _Key(_scalars, None)},
                 lambda a: transform_sandwich(a["base"], a["terms"], equivalent_to_cuntz=a["equivalent_to_cuntz"])),
    "sandwich_series": ({}, lambda a: make_split_series_sandwich()),
    "gauge": ({"base": _Key(_state), "g": _Key(_each(_scalars))},
              lambda a: transform_gauge(a["base"], a["g"])),
    "mixture": ({"components": _Key(_each(_state)), "weights": _Key(_scalars)},
                lambda a: make_mixture(a["components"], a["weights"])),
}
_REPS = {
    "grid": ({"n": _Key(_int(2))}, lambda a: GridRepresentation(a["n"])),
    "shift": ({"n": _Key(_int(2), None), "word": _Key(_word)}, lambda a: ShiftRepresentation(a["word"])),
    "lazy": ({"n": _Key(_int(2), 2), **_LAZY_WORD}, lambda a: ShiftRepresentation(_lazy_word(a, a["n"]))),
}


def word_from_json(v, where: str = "word"):
    if not isinstance(v, (list, tuple)) or not all(isinstance(a, int) and not isinstance(a, bool) for a in v):
        raise SchemaError(f"{where}: expected an array of integer letters, got {v!r}")
    return tuple(v)


def epword_from_json(v, n: int | None, where: str = "word"):
    """``{"pre", "per"}`` over 1..n; a shift representation may omit n, which
    then is the largest letter, at least 2."""
    a = _read_keys(v, _EPWORD, "auto", where)
    return EventuallyPeriodicWord(a["pre"], a["per"], n or max((2, *a["pre"], *a["per"])))


def element_from_json(v, mode: str = "auto", where: str = "element") -> CuntzElement:
    a = _read_keys(v, _ELEMENT, mode, where)
    terms = {}
    for key, c in a["terms"]:
        terms[key] = terms[key] + c if key in terms else c
    return CuntzElement(a["n"], terms)


def element_to_json(x: CuntzElement):
    out = []
    for J, K, c in x.sorted_terms():
        s = scalar_to_json(c)
        out.append({"J": list(J), "K": list(K), "re": s[0], "im": s[1]})
    return {"n": x.n, "terms": out}


def state_from_spec(obj: dict, mode: str = "auto") -> MomentFunctional:
    return _from_spec(obj, "family", _STATES, "state spec", mode)


def rep_from_spec(obj: dict):
    return _from_spec(obj, "kind", _REPS, "representation spec", "auto")


def parse_spec(path: str, mode: str = "auto"):
    """Load a state or representation spec file.

    State specs are gated by a level-2 positivity check of their moment
    table; a non-positive table raises GateFailed with the smallest
    eigenvalue estimate as witness.
    """
    too_deep = f"{path}: the spec nests too deeply"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    except ValueError as e:  # bad JSON, bad UTF-8, or an integer too long to convert
        raise SchemaError(f"{path} is not valid JSON: {e}") from e
    except RecursionError:
        raise SchemaError(too_deep) from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level")
    try:
        if "kind" in obj:
            return rep_from_spec(obj)
        omega = state_from_spec(obj, mode)
    except RecursionError:  # the readers take a few frames per level of nesting
        raise SchemaError(too_deep) from None
    ok, min_eig = positivity_check(omega, level=2)
    if not ok:
        raise GateFailed(
            f"{path}: the level-2 moment matrix is not positive semidefinite "
            f"(smallest eigenvalue estimate {format_float(min_eig)})"
        )
    return omega


def dump_json(obj) -> str:
    """Deterministic JSON rendering (insertion order, two-space indent).

    The text is that of ``json.dumps(obj, indent=2, allow_nan=False)``,
    rendered here in one recursion: given an indent, the standard library
    leaves its C encoder for a chain of Python generators.  Strings are
    escaped to ASCII by the standard library's own function, floats written
    by ``float.__repr__``, and a nan or an infinity raises ValueError.  Keys
    must be strings, as every document the commands render has: a key of
    another type raises TypeError, where ``json.dumps`` would convert it."""
    out: list[str] = []
    _render_json(obj, "\n", out.append)
    return "".join(out)


_JSON_STRING = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    if not isfinite(x):
        raise ValueError("Out of range float values are not JSON compliant")
    return float.__repr__(x)


# the renderers of a pair's numbers, keyed by exact type: a bool or another
# int subclass takes the general path
_JSON_NUMBER = {int: int.__repr__, float: _json_float}


def _render_json(x, newline: str, emit) -> None:
    """Emit the JSON text of x, its nested lines opened by ``newline``
    (a line break and the indent of x) and two more spaces."""
    if isinstance(x, str):
        emit(_JSON_STRING(x))
    elif x is None:
        emit("null")
    elif x is True:
        emit("true")
    elif x is False:
        emit("false")
    elif isinstance(x, int):
        emit(int.__repr__(x))
    elif isinstance(x, float):
        emit(_json_float(x))
    elif isinstance(x, dict):
        if not x:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in x.items():
            emit(sep + _JSON_STRING(k) + ": ")
            sep = "," + inner
            _render_json(v, inner, emit)
        emit(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            emit("[]")
            return
        inner = newline + "  "
        if len(x) == 2:
            # a pair of numbers, the [re, im] of a scalar, in one emit
            a, b = _JSON_NUMBER.get(type(x[0])), _JSON_NUMBER.get(type(x[1]))
            if a and b:
                emit("[" + inner + a(x[0]) + "," + inner + b(x[1]) + newline + "]")
                return
        if all(type(v) is list and len(v) == 2 and type(v[0]) is float and type(v[1]) is float for v in x):
            # a row of float scalars' [re, im] pairs in one join
            pair = inner + "  "
            emit("[" + inner + ("," + inner).join(
                ["[" + pair + _json_float(a) + "," + pair + _json_float(b) + inner + "]" for a, b in x]
            ) + newline + "]")
            return
        sep = "[" + inner
        for v in x:
            emit(sep)
            sep = "," + inner
            _render_json(v, inner, emit)
        emit(newline + "]")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
