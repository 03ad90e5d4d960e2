"""Correctness oracle: which commands of a pass gave a wrong answer.

A command fails when it exits non-zero, raises, prints something that is
not JSON, or prints a wrong answer.  What "wrong" means depends on the
member:

* exact output of a command that reads only fixed specs must match, byte
  for byte, the SHA-256 digest recorded in ``reference/<workload>.json``;
* at a recorded seed every exact command is checked that way;
* seeded members are checked against the facts their construction fixes
  (``corpus.expect``): Cuntz states have cdim 1 and κ 1, a primitive word
  of length L gives cdim = κ = L, a canonical eventually periodic word
  gives cdim = preperiod + period and κ = period, a gauge twist keeps its
  base's level ranks and κ, and induced products are properly infinite;
* float output must agree with the recorded exact answers for the same
  numbers on every discrete field (cdim levels and status, κ value and
  certificate kind, verdicts, d) and within ``FLOAT_TOL`` on numeric ones:
  the certificate's ``u`` and ``z``, and the moments an FCS presentation
  generates up to word length ``FCS_CHECK_LEVEL``;
* the per-state blocks of a pairwise report must equal the single-state
  reports of the same pass;
* every selftest criterion must pass and report its recorded detail
  string.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from corpus import Corpus, rotation_of

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
FLOAT_TOL = 1e-6
FCS_CHECK_LEVEL = 3
VERDICTS = ("Equivalent", "Inequivalent", "Unknown")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Field extraction
# ---------------------------------------------------------------------------


def discrete_state(doc: dict) -> dict:
    """The fields of a single-state report that exact and float runs share."""
    kappa = dict(doc["kappa"])
    out = {
        "cdim": doc["cdim"],
        "kappa": {k: kappa[k] for k in ("value", "certificate", "status", "d", "interval", "level") if k in kappa},
        "pure": doc["pure"],
        "bucket": doc["bucket"],
    }
    return out


def discrete_fcs(doc: dict) -> dict:
    return {k: doc[k] for k in ("d", "lower_bound", "level") if k in doc}


def _number(part) -> float:
    if isinstance(part, str):
        return float(Fraction(part))
    return float(part)


def _scalars(node, path=""):
    """Yield (path, complex) for every [re, im] scalar leaf of a JSON tree."""
    if isinstance(node, list) and len(node) == 2 and all(isinstance(p, (int, float, str)) and not isinstance(p, bool)
                                                         for p in node):
        yield path, complex(_number(node[0]), _number(node[1]))
    elif isinstance(node, list):
        for i, x in enumerate(node):
            yield from _scalars(x, f"{path}[{i}]")
    elif isinstance(node, dict):
        if "re" in node and "im" in node:
            yield path, complex(_number(node["re"]), _number(node["im"]))
        for k, v in node.items():
            if k not in ("re", "im"):
                yield from _scalars(v, f"{path}.{k}")


def _matrix(rows) -> list:
    return [[complex(_number(x[0]), _number(x[1])) for x in row] for row in rows]


def presentation_moments(doc: dict, level: int = FCS_CHECK_LEVEL) -> dict:
    """ω(s_J s_K*) = <A_J Ω, G A_K Ω> for all words of length <= level.

    An FCS presentation is fixed only up to the choice of pivot words, and
    float rounding may break an exact tie between two candidates the other
    way, so float and exact presentations are compared by the moments they
    generate, not entry by entry.
    """
    A = [_matrix(a) for a in doc["A"]]
    G = _matrix(doc["metric"])
    omega = [complex(_number(x[0]), _number(x[1])) for x in doc["omega"]]

    def apply(m, v):
        return [sum(r[k] * v[k] for k in range(len(v))) for r in m]

    vectors = {(): omega}
    frontier = [()]
    for _ in range(level):
        frontier = [w + (i,) for w in frontier for i in range(1, len(A) + 1)]
        for w in frontier:
            vectors[w] = apply(A[w[-1] - 1], vectors[w[:-1]])
    metric_side = {w: apply(G, v) for w, v in vectors.items()}
    return {(J, K): sum(a.conjugate() * b for a, b in zip(vectors[J], metric_side[K]))
            for J in vectors for K in vectors}


def numeric_fields(kind: str, doc: dict) -> dict:
    if kind == "fcs":
        return presentation_moments(doc) if "A" in doc else {}
    kappa = doc["kappa"]
    return {p: v for p, v in _scalars({k: kappa[k] for k in ("u", "z") if k in kappa})}


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------


def _theory(kind: str, doc: dict, facts: dict, base_doc: dict | None) -> str | None:
    """Check a seeded member against the facts its construction fixes."""
    what = facts["kind"]
    if kind == "fcs":
        if what == "induced":
            return None if "lower_bound" in doc else "an induced product produced a finite presentation"
        return None if doc.get("d") == facts["cdim"] else f"fcs d {doc.get('d')}, expected {facts['cdim']}"
    cdim, kappa = doc["cdim"], doc["kappa"]
    if what == "induced":
        if kappa["value"] != "infinite" or kappa["certificate"] != "properly_infinite" or kappa.get("status") != "proved":
            return f"κ {kappa['value']} ({kappa['certificate']}), expected infinite, proved"
        return None
    if cdim["value"] != facts["cdim"] or cdim["status"] != "stabilized":
        return f"cdim {cdim['value']} ({cdim['status']}), expected {facts['cdim']} stabilized"
    if kappa["value"] != facts["kappa"]:
        return f"κ {kappa['value']}, expected {facts['kappa']}"
    if what == "cuntz" and doc["pure"] is not True:
        return "a Cuntz state was not reported pure"
    if what == "word" and kappa["certificate"] != "minimal":
        return f"word state certificate {kappa['certificate']}, expected minimal"
    if what == "shift" and (kappa["certificate"] != "shift_period" or kappa.get("d") != facts["kappa"]):
        return f"shift certificate {kappa['certificate']} d={kappa.get('d')}, expected shift_period d={facts['kappa']}"
    if what == "gauge":
        if base_doc is None:
            return "the base of a gauge twist was not reported in this pass"
        if cdim["levels"] != base_doc["cdim"]["levels"]:
            return f"gauge twist levels {cdim['levels']} differ from the base's {base_doc['cdim']['levels']}"
    return None


def _compare_float(kind: str, doc: dict, exact_doc: dict) -> str | None:
    if kind == "fcs":
        got, want = discrete_fcs(doc), discrete_fcs(exact_doc)
    else:
        got, want = discrete_state(doc), discrete_state(exact_doc)
    if got != want:
        return f"float answer {got} differs from the exact answer {want}"
    a, b = numeric_fields(kind, doc), numeric_fields(kind, exact_doc)
    if a.keys() != b.keys():
        return "float and exact answers have different numeric fields"
    bad = [p for p in a if not _close(a[p], b[p])]
    if bad:
        return f"{len(bad)} numbers differ from the exact answer beyond {FLOAT_TOL}, first at {bad[0]}"
    return None


def _pair_verdict(corpus: Corpus, a: str, b: str, verdict: str, fixed_verdicts: dict) -> str | None:
    if verdict not in VERDICTS:
        return f"{a} vs {b}: verdict {verdict!r}"
    key = f"{a}|{b}"
    if key in fixed_verdicts:
        want = fixed_verdicts[key]
        return None if verdict == want else f"{a} vs {b}: {verdict}, expected {want}"
    fa, fb = corpus.pair_facts.get(a), corpus.pair_facts.get(b)
    if fa and fb and fa[0] == fb[0]:
        same = fa[1] == fb[1] if fa[0] == "cuntz" else rotation_of(fa[1], fb[1])
        want = "Equivalent" if same else "Inequivalent"
        return None if verdict == want else f"{a} vs {b}: {verdict}, expected {want}"
    return None


def check_pass(corpus: Corpus, records: list, reference: dict) -> dict:
    """Map each failing command label to its reason."""
    failures: dict[str, str] = {}
    if corpus.workload == "selftest":
        recorded = reference["details"]
        for rec in records:
            if rec["exception"] or rec["rc"] != 0:
                failures[rec["label"]] = rec["exception"] or f"criterion failed: {rec['stdout']}"
            elif rec["label"] in recorded and rec["stdout"] != recorded[rec["label"]]:
                failures[rec["label"]] = "detail differs from the recorded one"
        expected = {f"criterion:{s}:{name}" for s in corpus.selftest_seeds for name in reference["criteria"]}
        for label in sorted(expected - {r["label"] for r in records}):
            failures[label] = "criterion missing from the pass"
        return failures

    exact = corpus.workload == "report_exact"
    by_label = {c.label: c for c in corpus.commands}
    docs: dict[str, dict] = {}
    for rec in records:
        label = rec["label"]
        if rec["exception"]:
            failures[label] = rec["exception"].strip().splitlines()[-1]
            continue
        if rec["rc"] != 0:
            failures[label] = f"exit {rec['rc']}: {rec['stderr'].strip()}"
            continue
        try:
            docs[label] = json.loads(rec["stdout"])
        except json.JSONDecodeError:
            failures[label] = "output is not JSON"

    seed_digests = reference.get("seeds", {}).get(str(corpus.seed))
    for rec in records:
        label = rec["label"]
        if label in failures or label not in by_label:
            continue
        cmd = by_label[label]
        doc = docs[label]
        reason = None
        seeded = [s for s in cmd.specs if corpus.seeded(s)]
        if exact and seed_digests is not None:
            if digest(rec["stdout"]) != seed_digests.get(label):
                reason = "output differs from the recorded reference at this seed"
        elif exact and not seeded:
            if digest(rec["stdout"]) != reference["fixed"].get(label):
                reason = "output differs from the recorded reference"
        if reason is None and cmd.kind == "pairwise":
            reason = _check_pairwise(corpus, cmd, doc, docs, reference.get("pairwise_fixed", {}))
        elif reason is None and seeded:
            facts = corpus.expect[cmd.specs[0]]
            base = docs.get(f"report:{facts['base']}") if "base" in facts else None
            reason = _theory(cmd.kind, doc, facts, base)
        elif reason is None and not exact:
            exact_doc = reference["exact"].get(label)
            reason = (_compare_float(cmd.kind, doc, exact_doc) if exact_doc is not None
                      else "no recorded exact answer for this member")
        if reason:
            failures[label] = reason
    for label in sorted(set(by_label) - {r["label"] for r in records}):
        failures[label] = "command missing from the pass"
    return failures


def _check_pairwise(corpus: Corpus, cmd, doc: dict, docs: dict, fixed_verdicts: dict) -> str | None:
    states = doc.get("states", [])
    if len(states) != len(cmd.specs):
        return f"{len(states)} state blocks for {len(cmd.specs)} specs"
    for name, block in zip(cmd.specs, states):
        single = docs.get(f"report:{name}")
        if single is not None and block != single:
            return f"the block of {name} differs from its single-state report"
    n = len(cmd.specs)
    want_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    got_pairs = [(p["i"], p["j"]) for p in doc.get("pairwise", [])]
    if got_pairs != want_pairs:
        return "the pairwise matrix does not list every pair once"
    for p in doc["pairwise"]:
        reason = _pair_verdict(corpus, cmd.specs[p["i"]], cmd.specs[p["j"]], p["verdict"], fixed_verdicts)
        if reason:
            return reason
    return None
