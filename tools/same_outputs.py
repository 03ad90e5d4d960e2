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
* ``fcs --mode float`` (json) on every golden spec and on its twist, so a
  change to float presentations shows up per family;
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
* ``moments --level 3`` (json), exact and ``--mode float``, on the code
  1^10, whose fixed-point kernel has ten vectors, so its table comes from
  the minimum-norm step (as does the golden ``sub_cuntz_power``'s), and on
  two underdetermined codes with non-real tables (``MIN_NORM_CODES``): the
  one-word code (12)^2 with z = i and the tensor cube of (3/5, 4i/5).
* ``equiv`` (json) on pairs that the tensor-conjugacy rule decides: the
  phase-marked word states of ``selftest`` at depths 2..5 as ``sub_cuntz``
  specs, every pair of each depth; the golden ``sub_cuntz``,
  ``sub_cuntz_swapped`` and ``sub_cuntz_twisted``, every ordered pair; and
  ``--mode float``, a dense rank-one tensor of order 4 against each of its
  three rotations.
* ``rep`` (json and md) on each kind of representation (``REPS``): the grid
  over n = 2 and 3, shift representations of eventually periodic words, and
  the lazy Thue-Morse and Sturmian words, so ``kappa_rep`` runs on the
  sample vectors of each.
* ``report``, ``cdim``, ``kappa``, ``fcs`` and ``pure`` with ``--strict``
  (md) on every golden spec and on its twist, and ``rep --strict`` on each
  spec of ``REPS``: the exit code 3 of an unresolved answer;
* failing commands (``ERRORS``, json and md): a representation spec given
  to ``cdim``, a state spec given to ``rep``, a bound below its least
  value, a missing file, a file that is not JSON, an unknown family, an
  option the command does not take (exit 2), a gauge spec nested 400
  and 3000 deep (``DEEP``), and ``pure`` on two mixtures whose weights
  sum to 1 but are not real, of two Cuntz states and of one twice.

Each command's stdout, stderr and exit code (or traceback) are compared.
A json output that moved is read as numbers: the table counts the numbers
that moved and gives the largest |delta|.  The table goes to stdout, in
markdown, followed by one line per command that differs.  A second table
gives, for the ``report`` and ``fcs`` commands of each fixed report_float
member, the largest |delta| between its json output and its exact twin's in
each tree: the report_exact command of the same label, or for a heavy float
state the ``solve`` command on its exact twin.  Seeded members have no twin.
A last line says, for each tree, whether numpy was imported by the end of
its run.  The exit code is 0 when every exact command (no ``--mode float``)
is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
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
# underdetermined codes whose minimum-norm tables are not real: the one-word
# code (12)^2 with z = i (a kernel of two vectors) and the tensor cube of
# (3/5, 4i/5) (three), its coefficients in lexicographic word order
MIN_NORM_CODES = {
    "one_word_12x2": {"family": "prefix_code", "n": 2, "code": [[1, 2, 1, 2]], "z": [[0, 1]]},
    "tensor_cube": {"family": "sub_cuntz", "n": 2, "m": 3,
                    "z": [["27/125", 0], [0, "36/125"], [0, "36/125"], ["-48/125", 0],
                          [0, "36/125"], ["-48/125", 0], ["-48/125", 0], [0, "-64/125"]]},
}
# the members of tests/golden/pairwise.json, in its order (tests/test_golden.py's PAIRWISE)
PAIRWISE = [
    "cuntz", "cuntz_swapped", "cuntz_10", "gauge", "geometric_progression", "gauge_progression",
    "sandwich_series", "sandwich_user", "sandwich", "shift", "shift_21", "shift_112", "vector_shift",
    "vector_grid", "vector_lazy", "gauge_shift", "gauge_sub_cuntz", "sub_cuntz", "sub_cuntz",
    "sub_cuntz_swapped", "sub_cuntz_twisted", "sub_cuntz_power", "progression_a", "progression_a",
    "progression_b", "progression_open", "induced_product", "induced_shifted", "induced_other",
    "mixture", "prefix_code",
]
# the phase marks of selftest's phase-marked word states, conjugated (the
# state of phase c has coefficient conj(c) on its word), as spec scalars
MARKED_PHASES = [[1, 0], [0, -1], [-1, 0], [0, 1], ["3/5", "-4/5"], ["3/5", "4/5"], ["-4/5", "-3/5"],
                 ["5/13", "-12/13"]]
# golden sub_cuntz states of order 2 whose tensors are equal or swapped
TENSOR_GOLDEN = ("sub_cuntz", "sub_cuntz_swapped", "sub_cuntz_twisted")
# one representation spec per kind, for the rep commands
REPS = {
    "grid_n2": {"kind": "grid", "n": 2},
    "grid_n3": {"kind": "grid", "n": 3},
    "shift_2x112": {"kind": "shift", "n": 2, "word": {"pre": [2], "per": [1, 1, 2]}},
    "shift_1": {"kind": "shift", "n": 3, "word": {"per": [1]}},
    "lazy_thue_morse": {"kind": "lazy", "preset": "thue_morse"},
    "lazy_sturmian": {"kind": "lazy", "preset": "sturmian", "horizon": 64},
}
# the failing command lines, on the spec files of ``error_files``
ERRORS = {
    "cdim:rep_spec": ["cdim", "grid.json"],
    "rep:state_spec": ["rep", "cuntz.json"],
    "moments:level_-1": ["moments", "cuntz.json", "--level", "-1"],
    "cdim:max_level_0": ["cdim", "cuntz.json", "--max-level", "0"],
    "kappa:search_depth_0": ["kappa", "cuntz.json", "--search-depth", "0"],
    "cdim:missing_file": ["cdim", "missing.json"],
    "cdim:not_json": ["cdim", "not_json.json"],
    "cdim:unknown_family": ["cdim", "unknown_family.json"],
    "moments:strict": ["moments", "cuntz.json", "--strict"],
    "cdim:deep_400": ["cdim", "deep_400.json"],
    "cdim:deep_3000": ["cdim", "deep_3000.json"],
    "pure:complex_weights": ["pure", "complex_weights.json"],
    "pure:complex_weights_equal": ["pure", "complex_weights_equal.json"],
}
# the depths of the nested gauge specs: past the spec readers' recursion, and past the JSON decoder's
DEEP = (400, 3000)
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
    json.dump({"records": out_records, "numpy_loaded": "numpy" in sys.modules}, fh)
"""


def solves_fixed_point(spec: dict) -> bool:
    """Whether the state of ``spec``, or the base it twists, is a prefix-code state."""
    while spec["family"] == "gauge":
        spec = spec["base"]
    return spec["family"] in FIXED_POINT_FAMILIES


def phase_word_spec(d: int, coefficient) -> dict:
    """The sub_cuntz state of order d over two letters with ``coefficient``
    on the word 2^(d-1) 1 (index 2^d - 2 in lexicographic order), 0 elsewhere."""
    z = [0] * 2**d
    z[2**d - 2] = coefficient
    return {"family": "sub_cuntz", "n": 2, "m": d, "z": z}


def rank_one_specs() -> list[dict]:
    """A dense rank-one tensor x1 (x) x2 of order 4 over two letters, split
    after 2, with inexact float entries, followed by its rotations by 1, 2
    and 3 letters (the rotation by 2 is the swap x2 (x) x1)."""
    def unit(v):
        norm = sum(abs(x) ** 2 for x in v) ** 0.5
        return [x / norm for x in v]

    words = list(itertools.product((1, 2), repeat=4))
    z = dict(zip(words, (a * b for a in unit([1, 2, 2 + 1j, 3]) for b in unit([1, -1, 1j, 2]))))
    return [{"family": "sub_cuntz", "n": 2, "m": 4,
             "z": [[z[w[-s:] + w[:-s]].real, z[w[-s:] + w[:-s]].imag] for w in words]} for s in range(4)]


def nested_gauge(depth: int) -> str:
    """The JSON text of the Cuntz state (1, 0) twisted by the swap ``depth``
    times, built as text since json.dumps recurses too."""
    base = '{"family": "cuntz", "z": [1, 0]}'
    return '{"family": "gauge", "base": ' * depth + base + ', "g": [[0, 1], [1, 0]]}' * depth


def complex_weight_mixture(second: list) -> dict:
    """The mixture of the Cuntz states (1, 0) and ``second`` with the weights
    1/2 + i/10 and 1/2 - i/10, which sum to 1 but are not real."""
    return {"family": "mixture", "components": [{"family": "cuntz", "z": [1, 0]}, {"family": "cuntz", "z": second}],
            "weights": [["1/2", "1/10"], ["1/2", "-1/10"]]}


def error_files(d: Path) -> None:
    """The spec files that ``ERRORS`` reads, written under ``d``."""
    _write(d / "grid.json", REPS["grid_n2"])
    _write(d / "cuntz.json", {"family": "cuntz", "z": [["3/5", 0], ["4/5", 0]]})
    _write(d / "unknown_family.json", {"family": "unknown"})
    (d / "not_json.json").write_text('{"family": "cuntz", "z": [1, 0]', encoding="utf-8")
    for depth in DEEP:
        (d / f"deep_{depth}.json").write_text(nested_gauge(depth), encoding="utf-8")
    for name, second in (("complex_weights", [0, 1]), ("complex_weights_equal", [1, 0])):
        _write(d / f"{name}.json", complex_weight_mixture(second))


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
        for file in files.values():
            for command in GOLDEN_COMMANDS:
                plan[f"strict/md/{command}:{Path(file).stem}"] = (str(d), [command, file, "--strict"])
        for group, file in files.items():
            for command in GOLDEN_COMMANDS:
                plan[f"{group}/json/{command}:{path.stem}"] = (str(d), [command, file, "--format", "json"])
                plan[f"{group}/md/{command}:{path.stem}"] = (str(d), [command, file])
            plan[f"{group}/json/moments:{path.stem}"] = (str(d), ["moments", file, "--level", "3",
                                                                   "--format", "json"])
            plan[f"{group}/json/kappa_search:{path.stem}"] = (str(d), ["kappa", file, "--search-certificates",
                                                                        "--format", "json"])
            plan[f"{group}/json/fcs_float:{path.stem}"] = (str(d), ["fcs", file, "--mode", "float",
                                                                     "--format", "json"])
        if solves_fixed_point(spec):
            plan[f"golden/json/moments_float:{path.stem}"] = (str(d), ["moments", files["golden"], "--level", "3",
                                                                       "--mode", "float", "--format", "json"])
    for group, suffix in (("golden", ".json"), ("twist", ".gauge.json")):
        files = [name + suffix for name in PAIRWISE]
        plan[f"pairwise/json/report:{group}"] = (str(d), ["report", *files, "--format", "json"])
        plan[f"pairwise/md/report:{group}"] = (str(d), ["report", *files])
    plan["selftest/json/selftest"] = (str(d), ["selftest", "--format", "json"])
    for a, b in itertools.permutations(TENSOR_GOLDEN, 2):
        plan[f"equiv/json/golden:{a}-{b}"] = (str(d), ["equiv", f"{a}.json", f"{b}.json", "--format", "json"])
    d = work / "equiv"
    d.mkdir()
    for depth in range(2, 6):
        files = [_write(d / f"phase_d{depth}_{i}.json", phase_word_spec(depth, c))
                 for i, c in enumerate(MARKED_PHASES)]
        for (i, a), (j, b) in itertools.combinations(enumerate(files), 2):
            plan[f"equiv/json/phase_d{depth}:{i}-{j}"] = (str(d), ["equiv", a, b, "--format", "json"])
    first, *rotations = (_write(d / f"rank_one_rot{s}.json", spec) for s, spec in enumerate(rank_one_specs()))
    for s, file in enumerate(rotations, 1):
        plan[f"equiv/json/rank_one_float:rot{s}"] = (str(d), ["equiv", first, file, "--mode", "float",
                                                              "--format", "json"])
    d = work / "solve"
    d.mkdir()
    for name, (n, m, z) in corpus_mod.heavy_float().items():
        file = _write(d / f"{name}.json", corpus_mod.sub_cuntz(n, m, z))
        for command in ("report", "fcs"):
            plan[f"solve/json/{command}:{name}"] = (str(d), [command, file, "--format", "json"])
    file = _write(d / "one_word_1x10.json", ONE_WORD)
    plan["solve/json/report:one_word_1x10"] = (str(d), ["report", file, "--format", "json"])
    moments = ["moments", file, "--level", "3", "--format", "json"]
    plan["solve/json/moments:one_word_1x10"] = (str(d), moments)
    plan["solve/json/moments_float:one_word_1x10"] = (str(d), [*moments, "--mode", "float"])
    for name, spec in MIN_NORM_CODES.items():
        moments = ["moments", _write(d / f"{name}.json", spec), "--level", "3", "--format", "json"]
        plan[f"solve/json/moments:{name}"] = (str(d), moments)
        plan[f"solve/json/moments_float:{name}"] = (str(d), [*moments, "--mode", "float"])
    d = work / "rep"
    d.mkdir()
    for name, spec in REPS.items():
        file = _write(d / f"{name}.json", spec)
        plan[f"rep/json/rep:{name}"] = (str(d), ["rep", file, "--format", "json"])
        plan[f"rep/md/rep:{name}"] = (str(d), ["rep", file])
        plan[f"strict/md/rep:{name}"] = (str(d), ["rep", file, "--strict"])
    d = work / "errors"
    d.mkdir()
    error_files(d)
    for name, argv in ERRORS.items():
        plan[f"errors/json/{name}"] = (str(d), [*argv, "--format", "json"])
        plan[f"errors/md/{name}"] = (str(d), argv)
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
                what = f"exception {old[3]!r} -> {new[3]!r}, exit {old[0]} -> {new[0]}"
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
    runs = {name: json.loads((BUILD / f"{name}.json").read_text(encoding="utf-8")) for name in trees}
    results = {name: run["records"] for name, run in runs.items()}
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
    print()
    loaded = {name: "yes" if run["numpy_loaded"] else "no" for name, run in runs.items()}
    print(f"numpy loaded: parent {loaded['parent']}, working tree {loaded['change']}")
    return 0 if exact_same else 1


if __name__ == "__main__":
    sys.exit(main())
