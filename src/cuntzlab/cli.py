"""Command-line interface.

Every command reads JSON spec files (see specio) and returns its markdown
lines, its JSON document and its exit code; ``run`` alone prints the lines
or the document, as ``--format`` asks, and returns the code: 0 on success,
1 on errors (one ``error:`` line on stderr, nothing on stdout), 2 on an
option the command does not take, and 3 when --strict is set and the answer
is unresolved.  Each result (a certificate, κ, cdim) has one renderer that
returns its text and its JSON fields together.  ``_COMMANDS`` lists the
options of each command.
Exact arithmetic is the default whenever all inputs are Gaussian rationals;
inputs with inexact floats are accepted only under ``--mode float``.  The
delta-table re-check of ``kappa`` runs to the cutoff its certificate claims
(12, or the horizon of a lazily generated word), and ``selftest`` runs at
the acceptance gate's seed unless ``--seed`` is given.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import inf

from .classify import (
    EquivalentToCuntz,
    LowerBoundOnly,
    Minimal,
    ProperlyInfinite,
    ShiftPeriod,
    cdim,
    equivalent,
    format_value,
    kappa,
    kappa_rep,
    pure,
    verify_properly_infinite,
)
from .errors import CuntzLabError, SchemaError
from .fcs import FCSPresentation, extract_fcs
from .moments import MomentFunctional
from .scalars import format_scalar, scalar_is_zero
from .specio import dump_json, element_to_json, parse_spec, scalar_to_json
from .symalg import CuntzElement
from .words import words_upto

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNRESOLVED = 3


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _word_str(J) -> str:
    if not J:
        return "()"
    if all(a <= 9 for a in J):
        return "".join(str(a) for a in J)
    return ".".join(str(a) for a in J)


def _element_str(x: CuntzElement) -> str:
    parts = []
    for J, K, c in x.sorted_terms():
        if scalar_is_zero(c):
            continue
        if not J and not K:
            body = "I"
        elif not K:
            body = f"s[{_word_str(J)}]"
        elif not J:
            body = f"s[{_word_str(K)}]*"
        else:
            body = f"s[{_word_str(J)}]s[{_word_str(K)}]*"
        coeff = format_scalar(c)
        parts.append(body if coeff == "1" else f"({coeff}) {body}")
    return " + ".join(parts) if parts else "0"


def _value_json(value, unresolved=None):
    """kappa-like values: an integer, "infinite", or ``unresolved`` for None."""
    if value is None:
        return unresolved
    return "infinite" if value == inf else value


def _certificate(cert) -> tuple[str, dict]:
    """The markdown text of a certificate and its JSON fields, its kind first."""
    doc = {"certificate": cert.kind}
    match cert:
        case Minimal(u=u):
            doc["u"] = element_to_json(u)
            return f"Minimal; u = {_element_str(u)}", doc
        case ProperlyInfinite(a=a, cutoff=cutoff, status=status):
            doc["status"] = status
            if cutoff is not None:
                doc["cutoff"] = cutoff
            if a is not None:
                doc["sequence"] = a.description
            return "ProperlyInfinite, " + ("proved" if status == "proved" else f"evidence to cutoff {cutoff}"), doc
        case ShiftPeriod(d=d):
            doc["d"] = d
            return f"ShiftPeriod d={d}", doc
        case EquivalentToCuntz(z=z, provenance=provenance):
            doc.update(z=[scalar_to_json(c) for c in z], provenance=provenance)
            return f"EquivalentToCuntz; z = ({', '.join(map(format_scalar, z))}); provenance {provenance}", doc
        case LowerBoundOnly(low=low, high=high, level=level, note=note):
            doc.update(interval=[low, _value_json(high)], note=note)
            where = ""
            if level is not None:
                doc["level"] = level
                where = f" at level {level}"
            return f"LowerBoundOnly in [{low}, {format_value(high)}]{where}{'; ' + note if note else ''}", doc


def _kappa(res) -> tuple[str, dict]:
    text, doc = _certificate(res.certificate)
    return f"κ={format_value(res.value)} ({text})", {"value": _value_json(res.value), **doc}


def _cdim(res) -> tuple[str, dict]:
    levels = ", ".join(str(r) for r in res.level_ranks)
    if res.status == "stabilized":
        text = f"cdim={res.value} (stabilized); levels {levels}"
    else:
        text = f"cdim>={res.value} (lower bound at level {len(res.level_ranks) - 1}); levels {levels}"
    return text, {"value": res.value, "status": res.status, "levels": list(res.level_ranks)}


def _require_state(obj, command: str) -> MomentFunctional:
    if not isinstance(obj, MomentFunctional):
        raise CuntzLabError(f"{command} expects a state spec, not a representation spec")
    return obj


def _strict(args, unresolved: bool) -> int:
    return EXIT_UNRESOLVED if args.strict and unresolved else EXIT_OK


# ---------------------------------------------------------------------------
# Commands: each returns its markdown lines, its JSON document and its exit code
# ---------------------------------------------------------------------------


def _cmd_cdim(args):
    omega = _require_state(parse_spec(args.spec, args.mode), "cdim")
    res = cdim(omega, args.max_level)
    text, doc = _cdim(res)
    lines = [text]
    if res.pivot_words:
        lines.append("pivot words: " + ", ".join(_word_str(p) for p in res.pivot_words))
    doc["pivot_words"] = [list(p) for p in res.pivot_words]
    return lines, {"cdim": doc}, _strict(args, res.status != "stabilized")


def _cmd_kappa(args):
    omega = _require_state(parse_spec(args.spec, args.mode), "kappa")
    res = kappa(omega, args.max_level, search_certificates=args.search_certificates, search_depth=args.search_depth)
    cres = cdim(omega, args.max_level)
    if cres.status == "stabilized":
        cdim_part = f"cdim {cres.value} (stabilized)"
    else:
        cdim_part = f"cdim lower bound {cres.value} at level {len(cres.level_ranks) - 1}"
    text, doc = _kappa(res)
    lines = [f"{text}; {cdim_part}"]
    if (
        isinstance(res.certificate, ProperlyInfinite)
        and res.certificate.status == "evidence"
        and omega.facts.sequence is not None
    ):
        check = verify_properly_infinite(omega, cutoff=res.certificate.cutoff)
        lines.append(f"delta table re-checked to cutoff {check.cutoff}: status {check.status}")
    return lines, {"kappa": doc, "cdim": _cdim(cres)[1]}, _strict(args, res.value is None)


def _verdict(dec, args):
    unresolved = dec.verdict == "Unknown"
    return [f"{dec.verdict} ({dec.reason})"], {"verdict": dec.verdict, "reason": dec.reason}, _strict(args, unresolved)


def _cmd_equiv(args):
    omega1 = _require_state(parse_spec(args.spec1, args.mode), "equiv")
    omega2 = _require_state(parse_spec(args.spec2, args.mode), "equiv")
    return _verdict(equivalent(omega1, omega2, args.max_level), args)


def _cmd_pure(args):
    return _verdict(pure(_require_state(parse_spec(args.spec, args.mode), "pure")), args)


def _cmd_moments(args):
    if args.level < 0:
        raise SchemaError(f"the word length must be at least 0, got {args.level}")
    omega = _require_state(parse_spec(args.spec, args.mode), "moments")
    words = list(words_upto(omega.n, args.level))
    rows = []
    doc_rows = []
    for J in words:
        for K in words:
            v = omega.moment(J, K)
            rows.append(f"| {_word_str(J)} | {_word_str(K)} | {format_scalar(v)} |")
            doc_rows.append({"J": list(J), "K": list(K), "value": scalar_to_json(v)})
    lines = [f"moments omega(s_J s_K*) up to level {args.level} (n={omega.n})", "", "| J | K | value |", "|---|---|---|"] + rows
    return lines, {"n": omega.n, "level": args.level, "moments": doc_rows}, EXIT_OK


def _cmd_fcs(args):
    omega = _require_state(parse_spec(args.spec, args.mode), "fcs")
    out = extract_fcs(omega, args.max_level)
    if isinstance(out, FCSPresentation):
        lines = [
            f"d={out.d}; pivot words: " + ", ".join(_word_str(p) for p in out.pivot_words),
            f"row relation sum_i A_i^H G A_i = G verified; stabilized at level {out.level}",
        ]
        doc = {
            "d": out.d,
            "A": [[[scalar_to_json(x) for x in row] for row in A] for A in out.A],
            "omega": [scalar_to_json(x) for x in out.omega],
            "metric": [[scalar_to_json(x) for x in row] for row in out.metric],
        }
        return lines, doc, EXIT_OK
    lines = [f"not finitely correlated within level {args.max_level}: rank >= {out.low} ({out.note})"]
    return lines, {"lower_bound": out.low, "level": out.level, "note": out.note}, _strict(args, True)


def _cmd_rep(args):
    rep = parse_spec(args.spec)
    if isinstance(rep, MomentFunctional):
        raise CuntzLabError("rep expects a representation spec, not a state spec")
    res = kappa_rep(rep, args.max_level)
    text, doc = _kappa(res)
    # the endomorphism's powers index is the number of generators, its kappa the representation's
    lines = [
        text,
        f"endomorphism invariants: powers index {rep.n}, κ {format_value(res.value)}",
        f"spectrum bucket: {format_value(res.value)}",
    ]
    doc = {"kappa": doc, "powers_index": rep.n, "bucket": _value_json(res.value, "unresolved")}
    return lines, doc, _strict(args, res.value is None)


def _cmd_selftest(args):
    from .selftest import GATE_SEED, run_all

    seed = GATE_SEED if args.seed is None else args.seed
    results = run_all(seed)
    lines = []
    doc_rows = []
    n_pass = 0
    for i, r in enumerate(results, 1):
        status = "PASS" if r.ok else "FAIL"
        n_pass += r.ok
        detail = f" - {r.detail}" if (r.detail and not r.ok) else ""
        lines.append(f"[{i:2d}/{len(results)}] {status} {r.name} ({r.seconds:.2f}s){detail}")
        doc_rows.append({"name": r.name, "ok": r.ok, "detail": r.detail, "seconds": round(r.seconds, 3)})
    ok = n_pass == len(results)
    lines.append(f"{n_pass} passed, {len(results) - n_pass} failed (seed {seed})")
    return lines, {"ok": ok, "seed": seed, "results": doc_rows}, EXIT_OK if ok else EXIT_ERROR


def _report_state(omega: MomentFunctional, args, label: str):
    cres = cdim(omega, args.max_level)
    kres = kappa(omega, args.max_level)
    pdec = pure(omega)
    cdim_text, cdim_doc = _cdim(cres)
    kappa_text, kappa_doc = _kappa(kres)
    doc = {
        "cdim": cdim_doc,
        "kappa": kappa_doc,
        "pure": {"Pure": True, "NotPure": False}.get(pdec.verdict),
        "pure_reason": pdec.reason,
        "bucket": _value_json(kres.value, "unresolved"),
    }
    lines = [
        f"## {label}",
        "",
        f"family: {omega.family} (n={omega.n}, {'exact' if omega.exact else 'float'})",
        cdim_text,
        kappa_text,
        f"purity: {pdec.verdict} ({pdec.reason})",
        f"spectrum bucket: {format_value(kres.value)}",
    ]
    for w in omega.warnings:
        lines.append(f"warning: {w}")
    unresolved = cres.status != "stabilized" or kres.value is None or pdec.verdict == "Unknown"
    return doc, lines, unresolved


def _cmd_report(args):
    states = []
    for path in args.specs:
        states.append((path, _require_state(parse_spec(path, args.mode), "report")))
    docs = []
    lines: list[str] = []
    unresolved = False
    for path, omega in states:
        doc, ls, u = _report_state(omega, args, path)
        docs.append(doc)
        lines.extend(ls)
        lines.append("")
        unresolved = unresolved or u
    if len(states) == 1:
        return lines, docs[0], _strict(args, unresolved)
    pairwise = []
    lines.append("## pairwise equivalence")
    lines.append("")
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            dec = equivalent(states[i][1], states[j][1], args.max_level)
            pairwise.append({"i": i, "j": j, "verdict": dec.verdict, "reason": dec.reason})
            lines.append(f"{states[i][0]} vs {states[j][0]}: {dec.verdict} ({dec.reason})")
            unresolved = unresolved or dec.verdict == "Unknown"
    return lines, {"states": docs, "pairwise": pairwise}, _strict(args, unresolved)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# Each command takes exactly the arguments it lists in _COMMANDS, each defined
# once here, so no command accepts an option it does not read.
_ARGUMENTS = {
    "spec": {},
    "spec1": {},
    "spec2": {},
    "specs": {"nargs": "+"},
    "--mode": {"choices": ["float"], "default": "auto",
               "help": "admit inexact float parameters; by default arithmetic is exact and inexact floats are refused"},
    "--max-level": {"type": int, "default": 8, "help": "level cap for Gram growth (default 8)"},
    "--format": {"choices": ["md", "json"], "default": "md", "help": "output format (default md)"},
    "--strict": {"action": "store_true", "help": "exit 3 when the answer is unresolved"},
    "--search-certificates": {"action": "store_true",
                              "help": "search saturated prefix codes for a minimality certificate"},
    "--search-depth": {"type": int, "default": 3, "help": "depth of the certificate search (default 3)"},
    "--level": {"type": int, "default": 2, "help": "maximum word length (default 2)"},
    "--seed": {"type": int, "help": "sampling seed (default: the acceptance gate's seed)"},
}
_STATE_OPTIONS = "--mode --max-level --format --strict"
_COMMANDS = {
    "cdim": (_cmd_cdim, "dimension of the conjugate-cyclic subspace", f"spec {_STATE_OPTIONS}"),
    "kappa": (_cmd_kappa, "minimal cdim over the equivalence class, with certificate",
              f"spec {_STATE_OPTIONS} --search-certificates --search-depth"),
    "equiv": (_cmd_equiv, "decide equivalence of two states", f"spec1 spec2 {_STATE_OPTIONS}"),
    "pure": (_cmd_pure, "decide purity of a state", "spec --mode --format --strict"),
    "moments": (_cmd_moments, "table of moments omega(s_J s_K*)", "spec --mode --format --level"),
    "fcs": (_cmd_fcs, "finitely correlated presentation (d, A, omega, metric)", f"spec {_STATE_OPTIONS}"),
    "rep": (_cmd_rep, "invariants of a permutative representation", "spec --max-level --format --strict"),
    "selftest": (_cmd_selftest, "run the built-in acceptance checks", "--format --seed"),
    "report": (_cmd_report, "full report; several specs add a pairwise matrix", f"specs {_STATE_OPTIONS}"),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first run() of the process and reused after."""
    p = argparse.ArgumentParser(prog="cuntzlab",
                                description="Invariants of concretely parameterized states on Cuntz algebras")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for arg in arguments.split():
            sp.add_argument(arg, **_ARGUMENTS[arg])
        sp.set_defaults(fn=fn)
    return p


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        lines, doc, code = args.fn(args)
    except CuntzLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    print(dump_json(doc) if args.format == "json" else "\n".join(lines))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
