"""JSON schemas for states, representations, elements, and results.

Scalars travel as ``[re, im]`` pairs whose parts are integers, rational
strings like ``"3/5"``, or floats; a bare number abbreviates a real scalar.
Integer and string parts stay exact (Gaussian rationals); a float with a
fractional part is accepted only in float mode, so exactness is never lost
silently.

State specs are discriminated by ``"family"``::

    {"n": 2, "family": "cuntz", "z": [[1, 0], [0, 0]]}
    {"n": 2, "family": "sub_cuntz", "m": 2, "z": [...]}            # lex order
    {"n": 2, "family": "geometric_progression", "k": 2, "z": [...]}
    {"n": 2, "family": "prefix_code", "code": [[1], [2, 1]], "z": [...]}
    {"n": 2, "family": "induced_product", "pre": [...], "rep": [...]}
    {"n": 2, "family": "shift", "word": {"pre": [], "per": [1, 2]}}
    {"n": 2, "family": "vector", "rep": {...}, "key": ...}
    {"family": "sandwich", "base": {...}, "terms": [[[1,0], {...element}], ...]}
    {"family": "sandwich_series"}
    {"family": "gauge", "base": {...}, "g": [[[..], ..], ..]}
    {"family": "mixture", "components": [{...}, ...], "weights": [...]}

Representation specs are discriminated by ``"kind"``::

    {"kind": "shift", "word": {"pre": [...], "per": [...]}, "n": 2}
    {"kind": "grid", "n": 2}
    {"kind": "lazy", "preset": "thue_morse", "horizon": 256}
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import inf

from .classify import (
    EquivalentToCuntz,
    LowerBoundOnly,
    Minimal,
    ProperlyInfinite,
    ShiftPeriod,
)
from .errors import (
    GateFailed,
    Inconsistent,
    NotPrefixFree,
    NotUnit,
    NotUnitary,
    SchemaError,
    TailNotCertified,
)
from .fcs import FCSPresentation
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
from .scalars import QQi, format_float, is_exact_scalar
from .shiftrep import GridRepresentation, ShiftRepresentation, vector_state
from .symalg import CuntzElement
from .words import LAZY_PRESETS, EventuallyPeriodicWord, LazyWord

__all__ = [
    "scalar_from_json",
    "scalar_to_json",
    "word_from_json",
    "epword_from_json",
    "epword_to_json",
    "element_from_json",
    "element_to_json",
    "state_from_spec",
    "rep_from_spec",
    "parse_spec",
    "fcs_to_json",
    "certificate_to_json",
    "value_to_json",
    "dump_json",
]

_CONSTRUCTION_ERRORS = (NotUnit, NotPrefixFree, NotUnitary, TailNotCertified, Inconsistent)


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
        if p == int(p):
            return Fraction(int(p)), True
        return p, False
    raise SchemaError(f"{where}: expected a number or rational string, got {type(p).__name__}")


def scalar_from_json(v, mode: str = "auto", where: str = "scalar"):
    """Parse ``[re, im]`` (or a bare real) honoring the arithmetic mode.

    mode "exact" rejects inexact floats, "float" converts everything to
    complex, and "auto" stays exact when possible and otherwise demands the
    explicit float flag.
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
    if mode == "exact":
        raise SchemaError(f"{where}: value {v!r} is not exactly representable in exact mode")
    raise SchemaError(
        f"{where}: value {v!r} is not exactly representable; pass --mode float to accept it"
    )


def _fraction_to_json(f: Fraction):
    return f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def scalar_to_json(x):
    """Render a scalar as ``[re, im]`` with exact parts kept exact."""
    if isinstance(x, QQi):
        return [_fraction_to_json(x.re), _fraction_to_json(x.im)]
    if isinstance(x, (int, Fraction)):
        return [_fraction_to_json(Fraction(x)), 0]
    c = complex(x)
    return [float(format_float(c.real)), float(format_float(c.imag))]


# ---------------------------------------------------------------------------
# Words and elements
# ---------------------------------------------------------------------------


def word_from_json(v, where: str = "word"):
    if not isinstance(v, (list, tuple)) or not all(isinstance(a, int) and not isinstance(a, bool) for a in v):
        raise SchemaError(f"{where}: expected an array of integer letters, got {v!r}")
    return tuple(v)


def epword_from_json(v, n: int, where: str = "word"):
    if not isinstance(v, dict) or "per" not in v:
        raise SchemaError(f'{where}: expected {{"pre": [...], "per": [...]}}')
    return EventuallyPeriodicWord(
        word_from_json(v.get("pre", []), where + ".pre"),
        word_from_json(v["per"], where + ".per"),
        n,
    )


def epword_to_json(x: EventuallyPeriodicWord):
    return {"pre": list(x.pre), "per": list(x.per)}


def element_from_json(v, mode: str = "auto", where: str = "element") -> CuntzElement:
    if not isinstance(v, dict) or "n" not in v or "terms" not in v:
        raise SchemaError(f'{where}: expected {{"n": ..., "terms": [...]}}')
    n = v["n"]
    terms = {}
    for idx, t in enumerate(v["terms"]):
        here = f"{where}.terms[{idx}]"
        if not isinstance(t, dict) or "J" not in t or "K" not in t:
            raise SchemaError(f"{here}: expected J, K and a coefficient")
        J = word_from_json(t["J"], here + ".J")
        K = word_from_json(t["K"], here + ".K")
        coeff = scalar_from_json([t.get("re", 0), t.get("im", 0)], mode, here)
        key = (J, K)
        terms[key] = terms.get(key, 0) + coeff if key in terms else coeff
    return CuntzElement(n, terms)


def element_to_json(x: CuntzElement):
    out = []
    for (J, K), c in sorted(x.terms.items(), key=lambda kv: (len(kv[0][0]), kv[0][0], len(kv[0][1]), kv[0][1])):
        s = scalar_to_json(c)
        out.append({"J": list(J), "K": list(K), "re": s[0], "im": s[1]})
    return {"n": x.n, "terms": out}


# ---------------------------------------------------------------------------
# Representation specs
# ---------------------------------------------------------------------------


def _checked_int(v, key: str, where: str, low: int) -> int:
    """``v`` as an integer at least ``low``; booleans are not integers."""
    if not isinstance(v, int) or isinstance(v, bool) or v < low:
        raise SchemaError(f'{where}: "{key}" must be an integer >= {low}, got {v!r}')
    return v


def _word_or_lazy_from_json(v, n: int, where: str, spec: str):
    if isinstance(v, dict) and "preset" in v:
        preset = v["preset"]
        if preset not in LAZY_PRESETS:
            known = ", ".join(sorted(LAZY_PRESETS))
            raise SchemaError(f"{where}: unknown preset {preset!r} (known: {known})")
        return LAZY_PRESETS[preset](n, _checked_int(v.get("horizon", 256), "horizon", spec, 1))
    return epword_from_json(v, n, where)


def rep_from_spec(obj: dict):
    kind = obj.get("kind")
    spec = f"representation spec ({kind})"
    if kind == "grid":
        if "n" not in obj:
            raise SchemaError('representation spec: grid needs "n"')
        return GridRepresentation(_checked_int(obj["n"], "n", spec, 2))
    if kind == "lazy":
        n = _checked_int(obj.get("n", 2), "n", spec, 2)
        return ShiftRepresentation(_word_or_lazy_from_json(
            {"preset": obj.get("preset"), "horizon": obj.get("horizon", 256)}, n, "lazy", spec))
    if kind == "shift":
        n = obj.get("n")
        word = obj.get("word")
        if word is None:
            raise SchemaError('representation spec: shift needs "word"')
        if n is not None:
            n = _checked_int(n, "n", spec, 2)
        elif isinstance(word, dict) and "per" in word:
            letters = list(word.get("pre", [])) + list(word["per"])
            n = max(letters) if letters else 2
            n = max(n, 2)
        else:
            raise SchemaError('representation spec: shift needs "n"')
        return ShiftRepresentation(_word_or_lazy_from_json(word, n, "shift.word", spec))
    raise SchemaError(f"representation spec: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# State specs
# ---------------------------------------------------------------------------


def _scalars_from_json(vs, mode: str, where: str):
    if not isinstance(vs, (list, tuple)):
        raise SchemaError(f"{where}: expected an array of scalars")
    return [scalar_from_json(v, mode, f"{where}[{i}]") for i, v in enumerate(vs)]


def _require(obj: dict, key: str, family: str):
    if key not in obj:
        raise SchemaError(f'state spec ({family}): missing required field "{key}"')
    return obj[key]


def _require_int(obj: dict, key: str, family: str, low: int) -> int:
    return _checked_int(_require(obj, key, family), key, f"state spec ({family})", low)


def state_from_spec(obj: dict, mode: str = "auto", tol: float | None = None) -> MomentFunctional:
    if not isinstance(obj, dict) or "family" not in obj:
        raise SchemaError('state spec: expected an object with a "family" field')
    family = obj["family"]
    try:
        if family == "cuntz":
            z = _scalars_from_json(_require(obj, "z", family), mode, "z")
            return make_cuntz(z, tol)
        if family == "sub_cuntz":
            m = _require_int(obj, "m", family, 1)
            n = _require_int(obj, "n", family, 2)
            z = _scalars_from_json(_require(obj, "z", family), mode, "z")
            return make_sub_cuntz(m, z, n, tol=tol)
        if family == "geometric_progression":
            k = _require_int(obj, "k", family, 1)
            n = _require_int(obj, "n", family, 2)
            z = _scalars_from_json(_require(obj, "z", family), mode, "z")
            return make_geometric_progression(k, z, n, tol=tol)
        if family == "prefix_code":
            n = _require_int(obj, "n", family, 2)
            code = [word_from_json(w, f"code[{i}]") for i, w in enumerate(_require(obj, "code", family))]
            z = _scalars_from_json(_require(obj, "z", family), mode, "z")
            if len(z) != len(code):
                raise SchemaError(f"state spec (prefix_code): {len(code)} code words but {len(z)} coefficients")
            return make_prefix_code_state(code, dict(zip(code, z)), n, tol=tol)
        if family == "induced_product":
            n = _require_int(obj, "n", family, 2)
            pre = [_scalars_from_json(b, mode, f"pre[{i}]") for i, b in enumerate(obj.get("pre", []))]
            rep = [_scalars_from_json(b, mode, f"rep[{i}]") for i, b in enumerate(_require(obj, "rep", family))]
            return make_induced_product(pre, rep, n, tol=tol)
        if family == "shift":
            n = _require_int(obj, "n", family, 2)
            word = _word_or_lazy_from_json(_require(obj, "word", family), n, "word", f"state spec ({family})")
            return vector_state(ShiftRepresentation(word), word if isinstance(word, EventuallyPeriodicWord) else ((), 0))
        if family == "vector":
            rep = rep_from_spec(_require(obj, "rep", family))
            key = _require(obj, "key", family)
            if isinstance(rep, GridRepresentation):
                if not (isinstance(key, (list, tuple)) and len(key) == 2):
                    raise SchemaError("state spec (vector): grid keys are [k, m]")
                return vector_state(rep, (key[0], key[1]))
            if isinstance(rep.word, LazyWord):
                if not (isinstance(key, (list, tuple)) and len(key) == 2):
                    raise SchemaError("state spec (vector): lazy keys are [prefix, offset]")
                return vector_state(rep, (word_from_json(key[0], "key.prefix"), key[1]))
            return vector_state(rep, epword_from_json(key, rep.n, "key"))
        if family == "sandwich":
            base = state_from_spec(_require(obj, "base", family), mode, tol)
            terms = []
            for i, t in enumerate(_require(obj, "terms", family)):
                if not (isinstance(t, (list, tuple)) and len(t) == 2):
                    raise SchemaError(f"state spec (sandwich): terms[{i}] must be [coefficient, element]")
                c = scalar_from_json(t[0], mode, f"terms[{i}][0]")
                A = element_from_json(t[1], mode, f"terms[{i}][1]")
                terms.append((c, A))
            eq = obj.get("equivalent_to_cuntz")
            eqz = _scalars_from_json(eq, mode, "equivalent_to_cuntz") if eq is not None else None
            return transform_sandwich(base, terms, obj.get("tail_bound", 0), equivalent_to_cuntz=eqz, tol=tol)
        if family == "sandwich_series":
            return make_split_series_sandwich()
        if family == "gauge":
            base = state_from_spec(_require(obj, "base", family), mode, tol)
            g = [_scalars_from_json(row, mode, f"g[{i}]") for i, row in enumerate(_require(obj, "g", family))]
            return transform_gauge(base, g, tol=tol)
        if family == "mixture":
            comps = [state_from_spec(c, mode, tol) for c in _require(obj, "components", family)]
            weights = _scalars_from_json(_require(obj, "weights", family), mode, "weights")
            return make_mixture(comps, weights, tol=tol)
    except _CONSTRUCTION_ERRORS as e:
        raise SchemaError(f"state spec ({family}): {e}") from e
    raise SchemaError(f"state spec: unknown family {family!r}")


def parse_spec(path: str, mode: str = "auto", tol: float | None = None, gate: bool = True):
    """Load a state or representation spec file.

    State specs are gated by a level-2 positivity check of their moment
    table; a non-positive table raises GateFailed with the smallest
    eigenvalue estimate as witness.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level")
    if "kind" in obj:
        return rep_from_spec(obj)
    omega = state_from_spec(obj, mode, tol)
    if gate:
        ok, min_eig = positivity_check(omega, level=2, tol=tol)
        if not ok:
            witness = format_float(float(min_eig)) if not is_exact_scalar(min_eig) else str(min_eig)
            raise GateFailed(
                f"{path}: the level-2 moment matrix is not positive semidefinite "
                f"(smallest eigenvalue estimate {witness})"
            )
    return omega


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------


def value_to_json(value):
    """kappa-like values: integer, "infinite", or None."""
    if value is None:
        return None
    if value == inf:
        return "infinite"
    return value


def certificate_to_json(cert) -> dict:
    """Flatten a certificate into the report-JSON shape keyed by kind."""
    if isinstance(cert, Minimal):
        return {"certificate": "minimal", "u": element_to_json(cert.u)}
    if isinstance(cert, ProperlyInfinite):
        out = {"certificate": "properly_infinite", "status": cert.status}
        if cert.cutoff is not None:
            out["cutoff"] = cert.cutoff
        if cert.a is not None:
            out["sequence"] = cert.a.description
        return out
    if isinstance(cert, ShiftPeriod):
        return {"certificate": "shift_period", "d": cert.d}
    if isinstance(cert, EquivalentToCuntz):
        return {
            "certificate": "equivalent_to_cuntz",
            "z": [scalar_to_json(c) for c in cert.z],
            "provenance": cert.provenance,
        }
    if isinstance(cert, LowerBoundOnly):
        out = {
            "certificate": "lower_bound_only",
            "interval": [cert.low, value_to_json(cert.high)],
            "note": cert.note,
        }
        if cert.level is not None:
            out["level"] = cert.level
        return out
    raise SchemaError(f"unknown certificate type {type(cert).__name__}")


def fcs_to_json(F: FCSPresentation) -> dict:
    return {
        "d": F.d,
        "A": [[[scalar_to_json(x) for x in row] for row in A] for A in F.A],
        "omega": [scalar_to_json(x) for x in F.omega],
        "metric": [[scalar_to_json(x) for x in row] for row in F.metric],
    }


def dump_json(obj) -> str:
    """Deterministic JSON rendering (insertion order, two-space indent)."""
    return json.dumps(obj, indent=2, allow_nan=False)
