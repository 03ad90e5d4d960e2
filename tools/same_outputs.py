"""Run one fixed command set under a parent revision and the working tree, and compare.

    python3 tools/same_outputs.py --parent REV

Run from anywhere inside a source checkout.  The parent's ``src/`` is
exported with ``git archive`` (local git only) under
``.bench_build/same_outputs/``; the working tree runs from its own ``src/``.
Both run the same commands, in-process through ``cuntzlab.cli.run``, one
fresh interpreter per tree, the two trees side by side:

* the report_exact and report_float corpora of ``bench/corpus.py`` at seeds
  1 and 99, each command in json and in md;
* ``report``, ``fcs``, ``kappa``, ``pure`` and ``cdim`` (json and md),
  ``moments --level 3`` (json) and ``kappa --search-certificates`` (json)
  on every spec under ``tests/golden/specs/`` and on its twist by the
  complex unitary G_C;
* ``moments --level 3 --mode float`` (json) on every golden spec that
  solves a fixed-point table: a prefix-code, sub_cuntz or progression
  state, or a twist of one;
* ``report`` (json and md) over the members of the golden pairwise report
  (``PAIRWISE``, as in ``tests/test_golden.py``) and over their twists by
  G_C, every pair of each list;
* ``selftest --format json``, with each criterion's seconds dropped;
* exact ``report`` and ``fcs`` (json) on the exact twins of the heavy
  report_float states (dense order 6 and 7 over n = 2, order 4 over n = 3),
  and ``report`` (json) on the one-word code 1^10: the states with the
  largest fixed-point solves;
* ``moments --level 3 --mode float`` (json) on the code 1^10, whose float
  fixed-point kernel has ten vectors, so its table comes from the float
  minimum-norm step (as does the golden ``sub_cuntz_power``'s).

Each command's stdout, stderr and exit code (or traceback) are compared.
A json output that moved is read as numbers: the table counts the numbers
that moved and gives the largest |delta|.  The table goes to stdout, in
markdown, followed by one line per command that differs.  A second table
gives, for the ``report`` and ``fcs`` commands of each fixed report_float
member, the largest |delta| between its json output and its exact twin's in
each tree: the report_exact command of the same label, or for a heavy float
state the ``solve`` command on its exact twin.  Seeded members have no twin.
The exit code is 0 when every exact command (no ``--mode float``) is
identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import corpus as corpus_mod  # noqa: E402

BUILD = ROOT / ".bench_build" / "same_outputs"
SEEDS = (1, 99)
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_SPECS = GOLDEN / "specs"
GOLDEN_COMMANDS = ("report", "fcs", "kappa", "pure", "cdim")
# the families whose states solve a fixed-point table (prefix-code states)
FIXED_POINT_FAMILIES = ("sub_cuntz", "prefix_code", "geometric_progression")
# the complex unitary of the golden twist tests, block-extended by 1 on n = 3
G_C = {
    2: [[["3/5", 0], [0, "4/5"]], [[0, "4/5"], ["3/5", 0]]],
    3: [[["3/5", 0], [0, "4/5"], 0], [[0, "4/5"], ["3/5", 0], 0], [0, 0, 1]],
}
# the one-word code 1^10: a fixed-point system over 4094 columns with a
# ten-dimensional solution space, whose table is the minimum-norm one
ONE_WORD = {"family": "prefix_code", "n": 2, "code": [[1] * 10], "z": [1]}
# the members of tests/golden/pairwise.json, in its order (tests/test_golden.py's PAIRWISE)
PAIRWISE = [
    "cuntz", "cuntz_swapped", "cuntz_10", "gauge", "geometric_progression", "gauge_progression",
    "sandwich_series", "sandwich_user", "sandwich", "shift", "shift_21", "shift_112", "vector_shift",
    "vector_grid", "vector_lazy", "gauge_shift", "gauge_sub_cuntz", "sub_cuntz", "sub_cuntz",
    "sub_cuntz_swapped", "sub_cuntz_twisted", "sub_cuntz_power", "progression_a", "progression_a",
    "progression_b", "progression_open", "induced_product", "induced_shifted", "induced_other",
    "mixture", "prefix_code",
]
CHILD_TIMEOUT_S = 3600

# Runs in a fresh interpreter with the tree's src/ on sys.path: argv[1] is
# the plan (workdir and commands), argv[2] the result file.
CHILD = r"""
import contextlib, io, json, os, sys, traceback
with open(sys.argv[1], encoding="utf-8") as fh:
    plan = json.load(fh)
import cuntzlab.cli as cli
out_records = {}
for label, (workdir, argv) in plan.items():
    os.chdir(workdir)
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:
            exc = traceback.format_exc().splitlines()[-1]
    out_records[label] = [rc, out.getvalue(), err.getvalue(), exc]
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(out_records, fh)
"""


def solves_fixed_point(spec: dict) -> bool:
    """Whether the state of ``spec``, or the base it twists, is a prefix-code state."""
    while spec["family"] == "gauge":
        spec = spec["base"]
    return spec["family"] in FIXED_POINT_FAMILIES


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path.name


def build_plan(work: Path) -> dict:
    """{label: (workdir, argv)} over every command, with the spec files written under ``work``."""
    plan: dict = {}
    for workload in ("report_exact", "report_float"):
        for seed in SEEDS:
            d = work / f"{workload}_{seed}"
            d.mkdir(parents=True)
            corpus = corpus_mod.build(workload, seed)
            for name, spec in corpus.specs.items():
                _write(d / f"{name}.json", spec)
            for cmd in corpus.commands:
                plan[f"{workload}/{seed}/json/{cmd.label}"] = (str(d), cmd.argv)
                md = [a for i, a in enumerate(cmd.argv)
                      if a != "--format" and (i == 0 or cmd.argv[i - 1] != "--format")]
                plan[f"{workload}/{seed}/md/{cmd.label}"] = (str(d), md)
    d = work / "golden"
    d.mkdir()
    for path in sorted(GOLDEN_SPECS.glob("*.json")):
        spec = json.loads(path.read_text(encoding="utf-8"))
        # the spec's golden moments file records its alphabet size
        n = json.loads((GOLDEN / f"{path.stem}.moments.json").read_text(encoding="utf-8"))["n"]
        twist = {"family": "gauge", "base": spec, "g": G_C[n]}
        files = {"golden": _write(d / path.name, spec), "twist": _write(d / f"{path.stem}.gauge.json", twist)}
        for group, file in files.items():
            for command in GOLDEN_COMMANDS:
                plan[f"{group}/json/{command}:{path.stem}"] = (str(d), [command, file, "--format", "json"])
                plan[f"{group}/md/{command}:{path.stem}"] = (str(d), [command, file])
            plan[f"{group}/json/moments:{path.stem}"] = (str(d), ["moments", file, "--level", "3",
                                                                   "--format", "json"])
            plan[f"{group}/json/kappa_search:{path.stem}"] = (str(d), ["kappa", file, "--search-certificates",
                                                                        "--format", "json"])
        if solves_fixed_point(spec):
            plan[f"golden/json/moments_float:{path.stem}"] = (str(d), ["moments", files["golden"], "--level", "3",
                                                                       "--mode", "float", "--format", "json"])
    for group, suffix in (("golden", ".json"), ("twist", ".gauge.json")):
        files = [name + suffix for name in PAIRWISE]
        plan[f"pairwise/json/report:{group}"] = (str(d), ["report", *files, "--format", "json"])
        plan[f"pairwise/md/report:{group}"] = (str(d), ["report", *files])
    plan["selftest/json/selftest"] = (str(d), ["selftest", "--format", "json"])
    d = work / "solve"
    d.mkdir()
    for name, (n, m, z) in corpus_mod.heavy_float().items():
        file = _write(d / f"{name}.json", corpus_mod.sub_cuntz(n, m, z))
        for command in ("report", "fcs"):
            plan[f"solve/json/{command}:{name}"] = (str(d), [command, file, "--format", "json"])
    file = _write(d / "one_word_1x10.json", ONE_WORD)
    plan["solve/json/report:one_word_1x10"] = (str(d), ["report", file, "--format", "json"])
    plan["solve/json/moments:one_word_1x10"] = (str(d), ["moments", file, "--level", "3", "--mode", "float",
                                                          "--format", "json"])
    return plan


def export_parent(rev: str, dest: Path) -> Path:
    """The parent's src/ under ``dest``, exported by ``git archive``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")
    return dest / "src"


def start_child(src: Path, plan_path: Path, result_path: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return subprocess.Popen([sys.executable, "-c", CHILD, str(plan_path), str(result_path)], env=env)


def _normalize(label: str, record: list) -> list:
    """A selftest record without the seconds of each criterion."""
    if label.startswith("selftest/") and record[1]:
        doc = json.loads(record[1])
        for row in doc.get("results", []):
            row.pop("seconds", None)
        record = [record[0], json.dumps(doc, sort_keys=True), *record[2:]]
    return record


def _number(x):
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            return None
    return None


def number_drift(a, b) -> tuple[int, float] | None:
    """(numbers that moved, largest |delta|) between two json documents of
    one shape, or None when their shapes or non-numeric leaves differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        parts = [number_drift(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        parts = [number_drift(x, y) for x, y in zip(a, b)]
    else:
        x, y = _number(a), _number(b)
        if x is None or y is None:
            return (0, 0.0) if a == b else None
        return (0, 0.0) if x == y and type(a) is type(b) else (1, float(abs(x - y)))
    if any(p is None for p in parts):
        return None
    return sum(p[0] for p in parts), max((p[1] for p in parts), default=0.0)


def compare(plan: dict, parent: dict, change: dict) -> tuple[list, list, bool]:
    """The table rows per group, one line per differing command, and
    whether every exact command is identical."""
    groups: dict = defaultdict(lambda: [0, 0, 0, 0.0])  # commands, differing, moved numbers, max |delta|
    lines, exact_same = [], True
    for label, (_, argv) in plan.items():
        group = label.rsplit("/", 1)[0]
        old, new = _normalize(label, parent[label]), _normalize(label, change[label])
        row = groups[group]
        row[0] += 1
        if old == new:
            continue
        row[1] += 1
        floating = "--mode" in argv and argv[argv.index("--mode") + 1] == "float"
        exact_same = exact_same and floating
        drift = None
        if old[0] == new[0] and old[2:] == new[2:] and "--format" in argv:
            try:
                drift = number_drift(json.loads(old[1]), json.loads(new[1]))
            except json.JSONDecodeError:
                drift = None
        if drift is None:
            what = f"exit {old[0]} -> {new[0]}" if old[0] != new[0] else "text differs"
            if old[3] != new[3]:
                what = f"exception {old[3]!r} -> {new[3]!r}"
            lines.append(f"- `{label}`: {what}")
        else:
            row[2] += drift[0]
            row[3] = max(row[3], drift[1])
            lines.append(f"- `{label}`: {drift[0]} numbers moved, largest |delta| {drift[1]:.2g}")
    rows = [(g, *v) for g, v in groups.items()]
    return rows, lines, exact_same


def float_twins(plan: dict) -> dict:
    """{float command label: {seed: (float label, exact twin label)}} over
    the report and fcs commands of the fixed report_float members."""
    twins: dict = defaultdict(dict)
    for seed in SEEDS:
        corpus = corpus_mod.build("report_float", seed)
        for cmd in corpus.commands:
            if cmd.kind == "pairwise" or corpus.seeded(cmd.specs[0]):
                continue
            twin = f"report_exact/{seed}/json/{cmd.label}"
            if twin not in plan:
                twin = f"solve/json/{cmd.label}"
            twins[cmd.label][seed] = (f"report_float/{seed}/json/{cmd.label}", twin)
    return dict(twins)


def twin_drift(results: dict, pairs) -> float | None:
    """The largest |delta| between float outputs and their exact twins' over
    (float label, twin label) pairs, or None when a pair differs in shape,
    text or exit code."""
    worst = 0.0
    for label, twin in pairs:
        out, ref = results[label], results[twin]
        if out[0] != 0 or ref[0] != 0:
            return None
        drift = number_drift(json.loads(out[1]), json.loads(ref[1]))
        if drift is None:
            return None
        worst = max(worst, drift[1])
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the revision to compare the working tree against")
    args = ap.parse_args(argv)
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", args.parent + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    if BUILD.exists():
        shutil.rmtree(BUILD)
    work = BUILD / "work"
    plan = build_plan(work)
    plan_path = BUILD / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    trees = {"parent": export_parent(rev, BUILD / "parent"), "change": ROOT / "src"}
    children = {name: start_child(src, plan_path, BUILD / f"{name}.json") for name, src in trees.items()}
    for name, child in children.items():
        if child.wait(timeout=CHILD_TIMEOUT_S) != 0:
            print(f"error: the {name} run exited with {child.returncode}", file=sys.stderr)
            return 2
    results = {name: json.loads((BUILD / f"{name}.json").read_text(encoding="utf-8")) for name in trees}
    rows, lines, exact_same = compare(plan, results["parent"], results["change"])
    print(f"parent {rev[:12]} against the working tree: {len(plan)} commands")
    print()
    print("| group | commands | differ | numbers moved | largest \\|Δ\\| |")
    print("|---|---:|---:|---:|---:|")
    for group, count, differ, moved, delta in rows:
        print(f"| {group} | {count} | {differ} | {moved} | {delta:.2g} |")
    if lines:
        print()
        print("\n".join(lines))
    print()
    print("| float command | largest \\|Δ\\| to the exact twin, parent | change |")
    print("|---|---:|---:|")
    for label, pairs in float_twins(plan).items():
        cells = [twin_drift(results[name], pairs.values()) for name in trees]
        print(f"| {label} | " + " | ".join("differs" if d is None else f"{d:.2g}" for d in cells) + " |")
    return 0 if exact_same else 1


if __name__ == "__main__":
    sys.exit(main())
