"""Record the reference answers that oracle.py checks against.

    python3 bench/record.py [--workload report_exact|selftest|report_float]

Answers are recorded from the program as it stands, so run this only when
an answer is meant to change, and say why in CHANGES.md.  It writes
``bench/reference/<workload>.json``:

* report_exact: the SHA-256 digest of every command's output at the
  recorded seeds, the digests of the commands that read only fixed specs
  (valid at every seed), and the pairwise verdicts between fixed specs;
* report_float: the exact answers (full JSON) for the exact twins of the
  fixed float members and their pairwise verdicts; the exact dense order-6
  and order-7 states take minutes here, which is why they are recorded
  rather than recomputed by each run;
* selftest: the criterion names and every criterion's detail string at
  the gate seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus as corpus_mod  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

# the default seed of the documentation and one held out from tuning
RECORDED_SEEDS = (1, 99)
RECORD_TIMEOUT_S = 3600


def _one_pass(corpus, name: str) -> dict:
    workdir = run.BUILD / "record" / name
    run.write_corpus(corpus, workdir)
    result = run.run_pass(corpus, workdir, run.child_env(), 0, trace=False, timeout=RECORD_TIMEOUT_S)
    bad = [r["label"] for r in result["records"] if r["exception"] or r["rc"] != 0]
    if bad:
        raise SystemExit(f"cannot record {name}: commands failed: {bad}")
    return {r["label"]: r for r in result["records"]}


def _fixed_verdicts(corpus, records: dict) -> dict:
    out = {}
    for cmd in corpus.commands:
        if cmd.kind != "pairwise":
            continue
        doc = json.loads(records[cmd.label]["stdout"])
        for p in doc["pairwise"]:
            a, b = cmd.specs[p["i"]], cmd.specs[p["j"]]
            if not corpus.seeded(a) and not corpus.seeded(b):
                out[f"{a}|{b}"] = p["verdict"]
    return out


def record_report_exact() -> dict:
    ref = {"fixed": {}, "seeds": {}, "pairwise_fixed": {}}
    for seed in RECORDED_SEEDS:
        corpus = corpus_mod.build("report_exact", seed)
        records = _one_pass(corpus, f"report_exact-{seed}")
        ref["seeds"][str(seed)] = {label: oracle.digest(r["stdout"]) for label, r in records.items()}
        for cmd in corpus.commands:
            if not any(corpus.seeded(s) for s in cmd.specs):
                d = ref["seeds"][str(seed)][cmd.label]
                if ref["fixed"].setdefault(cmd.label, d) != d:
                    raise SystemExit(f"{cmd.label}: a fixed command gave different output at different seeds")
        ref["pairwise_fixed"].update(_fixed_verdicts(corpus, records))
    return ref


def record_report_float() -> dict:
    """Exact answers for the exact twins of the fixed float members."""
    floats = corpus_mod.build("report_float", RECORDED_SEEDS[0])
    twins = corpus_mod.Corpus("report_exact", RECORDED_SEEDS[0])
    for name in floats.specs:
        spec = corpus_mod.exact_twin(name, floats)
        if spec is not None:
            twins.specs[name] = spec
    corpus_mod.report_commands(twins, corpus_mod.pairwise_groups(corpus_mod.light_fixed(True)), [])
    records = _one_pass(twins, "report_float-exact-twins")
    return {
        "exact": {label: json.loads(r["stdout"]) for label, r in records.items() if not label.startswith("pairwise:")},
        "pairwise_fixed": _fixed_verdicts(twins, records),
    }


def record_selftest() -> dict:
    records = _one_pass(corpus_mod.build("selftest", RECORDED_SEEDS[0]), "selftest")
    prefix = f"criterion:{corpus_mod.GATE_SEED}:"
    return {"criteria": [label[len(prefix):] for label in records],
            "details": {label: r["stdout"] for label, r in records.items()}}


RECORDERS = {"report_exact": record_report_exact, "selftest": record_selftest, "report_float": record_report_float}


def main() -> int:
    ap = argparse.ArgumentParser(description="record reference answers")
    ap.add_argument("--workload", choices=corpus_mod.WORKLOADS, action="append")
    args = ap.parse_args()
    for workload in args.workload or corpus_mod.WORKLOADS:
        ref = RECORDERS[workload]()
        path = Path(oracle.REFERENCE_DIR) / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
