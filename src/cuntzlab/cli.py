"""Command-line interface.

Every command reads JSON spec files (see specio), prints a deterministic
markdown summary or a JSON document, and exits 0 on success, 1 on errors,
and 3 when --strict is set and the answer is unresolved.  Exact arithmetic
is the default whenever all inputs are Gaussian rationals; inputs with
inexact floats are accepted only under an explicit ``--mode float``.
"""

from __future__ import annotations

import argparse
import os
import sys

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
from .errors import CuntzLabError
from .fcs import FCSPresentation, extract_fcs
from .moments import MomentFunctional
from .scalars import format_scalar, scalar_is_zero
from .specio import (
    certificate_to_json,
    dump_json,
    fcs_to_json,
    parse_spec,
    scalar_to_json,
    value_to_json,
)
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
    for (J, K), c in sorted(x.terms.items(), key=lambda kv: (len(kv[0][0]), kv[0][0], len(kv[0][1]), kv[0][1])):
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


def _certificate_str(cert) -> str:
    if isinstance(cert, Minimal):
        return f"Minimal; u = {_element_str(cert.u)}"
    if isinstance(cert, ProperlyInfinite):
        if cert.status == "proved":
            return "ProperlyInfinite, proved"
        return f"ProperlyInfinite, evidence to cutoff {cert.cutoff}"
    if isinstance(cert, ShiftPeriod):
        return f"ShiftPeriod d={cert.d}"
    if isinstance(cert, EquivalentToCuntz):
        zs = ", ".join(format_scalar(c) for c in cert.z)
        return f"EquivalentToCuntz; z = ({zs}); provenance {cert.provenance}"
    if isinstance(cert, LowerBoundOnly):
        where = f" at level {cert.level}" if cert.level is not None else ""
        note = f"; {cert.note}" if cert.note else ""
        return f"LowerBoundOnly in [{cert.low}, {format_value(cert.high)}]{where}{note}"
    return type(cert).__name__


def _kappa_str(res) -> str:
    return f"κ={format_value(res.value)} ({_certificate_str(res.certificate)})"


def _kappa_doc(res) -> dict:
    return {"value": value_to_json(res.value), **certificate_to_json(res.certificate)}


def _cdim_doc(res) -> dict:
    return {"value": res.value, "status": res.status, "levels": list(res.level_ranks)}


def _cdim_str(res) -> str:
    levels = ", ".join(str(r) for r in res.level_ranks)
    if res.status == "stabilized":
        return f"cdim={res.value} (stabilized); levels {levels}"
    return f"cdim>={res.value} (lower bound at level {len(res.level_ranks) - 1}); levels {levels}"


def _require_state(obj, command: str) -> MomentFunctional:
    if not isinstance(obj, MomentFunctional):
        raise CuntzLabError(f"{command} expects a state spec, not a representation spec")
    return obj


def _emit(lines: list[str], doc, args) -> None:
    if args.format == "json":
        print(dump_json(doc))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_cdim(args) -> int:
    omega = _require_state(parse_spec(args.spec, args.mode), "cdim")
    res = cdim(omega, args.max_level)
    doc = {"cdim": {**_cdim_doc(res), "pivot_words": [list(p) for p in res.pivot_words]}}
    lines = [_cdim_str(res)]
    if res.pivot_words:
        lines.append("pivot words: " + ", ".join(_word_str(p) for p in res.pivot_words))
    _emit(lines, doc, args)
    return EXIT_UNRESOLVED if args.strict and res.status != "stabilized" else EXIT_OK


def _cmd_kappa(args) -> int:
    omega = _require_state(parse_spec(args.spec, args.mode), "kappa")
    res = kappa(omega, args.max_level, search_certificates=args.search_certificates, search_depth=args.search_depth)
    cres = cdim(omega, args.max_level)
    if cres.status == "stabilized":
        cdim_part = f"cdim {cres.value} (stabilized)"
    else:
        cdim_part = f"cdim lower bound {cres.value} at level {len(cres.level_ranks) - 1}"
    lines = [f"{_kappa_str(res)}; {cdim_part}"]
    if (
        isinstance(res.certificate, ProperlyInfinite)
        and res.certificate.status == "evidence"
        and omega.facts.sequence is not None
    ):
        check = verify_properly_infinite(omega, cutoff=args.cutoff)
        lines.append(f"delta table re-checked to cutoff {args.cutoff}: status {check.status}")
    _emit(lines, {"kappa": _kappa_doc(res), "cdim": _cdim_doc(cres)}, args)
    return EXIT_UNRESOLVED if args.strict and res.value is None else EXIT_OK


def _cmd_equiv(args) -> int:
    omega1 = _require_state(parse_spec(args.spec1, args.mode), "equiv")
    omega2 = _require_state(parse_spec(args.spec2, args.mode), "equiv")
    dec = equivalent(omega1, omega2, args.max_level)
    _emit([f"{dec.verdict} ({dec.reason})"], {"verdict": dec.verdict, "reason": dec.reason}, args)
    return EXIT_UNRESOLVED if args.strict and dec.verdict == "Unknown" else EXIT_OK


def _cmd_pure(args) -> int:
    omega = _require_state(parse_spec(args.spec, args.mode), "pure")
    dec = pure(omega)
    _emit([f"{dec.verdict} ({dec.reason})"], {"verdict": dec.verdict, "reason": dec.reason}, args)
    return EXIT_UNRESOLVED if args.strict and dec.verdict == "Unknown" else EXIT_OK


def _cmd_moments(args) -> int:
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
    _emit(lines, {"n": omega.n, "level": args.level, "moments": doc_rows}, args)
    return EXIT_OK


def _cmd_fcs(args) -> int:
    omega = _require_state(parse_spec(args.spec, args.mode), "fcs")
    out = extract_fcs(omega, args.max_level)
    if isinstance(out, FCSPresentation):
        lines = [
            f"d={out.d}; pivot words: " + ", ".join(_word_str(p) for p in out.pivot_words),
            f"row relation sum_i A_i^H G A_i = G verified; stabilized at level {out.level}",
        ]
        _emit(lines, fcs_to_json(out), args)
        return EXIT_OK
    lines = [f"not finitely correlated within level {args.max_level}: rank >= {out.low} ({out.note})"]
    _emit(lines, {"lower_bound": out.low, "level": out.level, "note": out.note}, args)
    return EXIT_UNRESOLVED if args.strict else EXIT_OK


def _cmd_rep(args) -> int:
    rep = parse_spec(args.spec, args.mode)
    if isinstance(rep, MomentFunctional):
        raise CuntzLabError("rep expects a representation spec, not a state spec")
    res = kappa_rep(rep, args.max_level)
    # the endomorphism's powers index is the number of generators, its kappa the representation's
    lines = [
        _kappa_str(res),
        f"endomorphism invariants: powers index {rep.n}, κ {format_value(res.value)}",
        f"spectrum bucket: {format_value(res.value)}",
    ]
    doc = {"kappa": _kappa_doc(res), "powers_index": rep.n, "bucket": value_to_json(res.value, "unresolved")}
    _emit(lines, doc, args)
    return EXIT_UNRESOLVED if args.strict and res.value is None else EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("CUNTZLAB_SEED", "20260814"))
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
    _emit(lines, {"ok": ok, "seed": seed, "results": doc_rows}, args)
    return EXIT_OK if ok else EXIT_ERROR


def _report_state(omega: MomentFunctional, args, label: str):
    cres = cdim(omega, args.max_level)
    kres = kappa(omega, args.max_level)
    pdec = pure(omega)
    doc = {
        "cdim": _cdim_doc(cres),
        "kappa": _kappa_doc(kres),
        "pure": {"Pure": True, "NotPure": False}.get(pdec.verdict),
        "pure_reason": pdec.reason,
        "bucket": value_to_json(kres.value, "unresolved"),
    }
    lines = [
        f"## {label}",
        "",
        f"family: {omega.family} (n={omega.n}, {'exact' if omega.exact else 'float'})",
        _cdim_str(cres),
        _kappa_str(kres),
        f"purity: {pdec.verdict} ({pdec.reason})",
        f"spectrum bucket: {format_value(kres.value)}",
    ]
    for w in omega.warnings:
        lines.append(f"warning: {w}")
    unresolved = cres.status != "stabilized" or kres.value is None or pdec.verdict == "Unknown"
    return doc, lines, unresolved


def _cmd_report(args) -> int:
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
        out_doc = docs[0]
    else:
        pairwise = []
        lines.append("## pairwise equivalence")
        lines.append("")
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                dec = equivalent(states[i][1], states[j][1], args.max_level)
                pairwise.append({"i": i, "j": j, "verdict": dec.verdict, "reason": dec.reason})
                lines.append(f"{states[i][0]} vs {states[j][0]}: {dec.verdict} ({dec.reason})")
                unresolved = unresolved or dec.verdict == "Unknown"
        out_doc = {"states": docs, "pairwise": pairwise}
    _emit(lines, out_doc, args)
    return EXIT_UNRESOLVED if args.strict and unresolved else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=["exact", "float"], default="auto",
                        help="arithmetic mode; default is exact whenever all inputs are Gaussian rational")
    common.add_argument("--max-level", type=int, default=8, help="level cap for Gram growth (default 8)")
    common.add_argument("--cutoff", type=int, default=12, help="delta-table depth for evidence checks (default 12)")
    common.add_argument("--format", choices=["md", "json"], default="md", help="output format (default md)")
    common.add_argument("--strict", action="store_true", help="exit 3 when the answer is unresolved")
    common.add_argument("--seed", type=int, default=None, help="sampling seed (overrides CUNTZLAB_SEED)")

    p = argparse.ArgumentParser(prog="cuntzlab",
                                description="Invariants of concretely parameterized states on Cuntz algebras")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("cdim", parents=[common], help="dimension of the conjugate-cyclic subspace")
    sp.add_argument("spec")
    sp.set_defaults(fn=_cmd_cdim)

    sp = sub.add_parser("kappa", parents=[common], help="minimal cdim over the equivalence class, with certificate")
    sp.add_argument("spec")
    sp.add_argument("--search-certificates", action="store_true",
                    help="search saturated prefix codes for a minimality certificate")
    sp.add_argument("--search-depth", type=int, default=3, help="depth of the certificate search (default 3)")
    sp.set_defaults(fn=_cmd_kappa)

    sp = sub.add_parser("equiv", parents=[common], help="decide equivalence of two states")
    sp.add_argument("spec1")
    sp.add_argument("spec2")
    sp.set_defaults(fn=_cmd_equiv)

    sp = sub.add_parser("pure", parents=[common], help="decide purity of a state")
    sp.add_argument("spec")
    sp.set_defaults(fn=_cmd_pure)

    sp = sub.add_parser("moments", parents=[common], help="table of moments omega(s_J s_K*)")
    sp.add_argument("spec")
    sp.add_argument("--level", type=int, default=2, help="maximum word length (default 2)")
    sp.set_defaults(fn=_cmd_moments)

    sp = sub.add_parser("fcs", parents=[common], help="finitely correlated presentation (d, A, omega, metric)")
    sp.add_argument("spec")
    sp.set_defaults(fn=_cmd_fcs)

    sp = sub.add_parser("rep", parents=[common], help="invariants of a permutative representation")
    sp.add_argument("spec")
    sp.set_defaults(fn=_cmd_rep)

    sp = sub.add_parser("selftest", parents=[common], help="run the built-in acceptance checks")
    sp.set_defaults(fn=_cmd_selftest)

    sp = sub.add_parser("report", parents=[common], help="full report; several specs add a pairwise matrix")
    sp.add_argument("specs", nargs="+")
    sp.set_defaults(fn=_cmd_report)
    return p


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CuntzLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
