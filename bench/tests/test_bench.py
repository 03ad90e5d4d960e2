"""The benchmark's own tests: smoke runs, the oracle, and the printed contract.

    python3 -m pytest bench/tests -q

The smoke runs take a few minutes: each workload runs one pass.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import corpus as corpus_mod  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

SEED = 1


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", corpus_mod.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    doc = last_json(run_bench(workload, trace=0))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in bench_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    doc = last_json(run_bench("report_float", trace=1))
    assert doc["correct"] is True
    declared = {m["name"]: m["unit"] for m in bench_json()["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert doc["metrics"]["linalg.solve_calls"]["value"] > 0
    assert doc["metrics"]["moments.evaluator_calls"]["value"] > 0


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in bench_json()["workloads"]] == list(corpus_mod.WORKLOADS)


def test_without_sources_the_benchmark_refuses(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "report_exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs():
    a, b = corpus_mod.build("report_exact", 7), corpus_mod.build("report_exact", 7)
    assert a.specs == b.specs and [c.argv for c in a.commands] == [c.argv for c in b.commands]
    assert corpus_mod.build("report_exact", 8).specs != a.specs


def test_probe_scales_by_the_probes_in_the_window():
    probe = speed.Probe()
    probe.starts = [0.01 * i for i in range(100)]
    probe.factors = [0.5] * 50 + [1.0] * 50
    assert probe.scaled(0.0, 0.2) == pytest.approx(0.1)
    assert probe.scaled(0.6, 0.3) == pytest.approx(0.3)
    # a window with fewer than MIN_PROBES probes takes the nearest ones:
    # eight slow and eight fast
    assert probe.factor(0.495, 0.505) == pytest.approx(0.75)
    assert probe.factor() == pytest.approx(0.75)
    with pytest.raises(RuntimeError):
        speed.Probe().factor()


# ---------------------------------------------------------------------------
# A corrupted reference answer is counted as a failure
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_pass(tmp_path_factory):
    """One pass over three cheap fixed members of report_exact and report_float."""
    out = {}
    for workload in ("report_exact", "report_float"):
        corpus = corpus_mod.build(workload, SEED)
        keep = {"report:n2_cuntz", "fcs:n2_cuntz", "report:n3_sub_cuntz"}
        corpus.commands = [c for c in corpus.commands if c.label in keep]
        workdir = tmp_path_factory.mktemp(workload)
        run.write_corpus(corpus, workdir)
        out[workload] = (corpus, [run.run_pass(corpus, workdir, run.child_env(), 0, trace=False, timeout=600)])
    return out


@pytest.mark.parametrize("workload", ["report_exact", "report_float"])
def test_recorded_reference_accepts_the_program(small_pass, workload):
    corpus, passes = small_pass[workload]
    attempted, failures = run.score(corpus, passes, oracle.load_reference(workload))
    assert attempted == 3 and failures == {}


def test_corrupted_exact_digest_is_counted(small_pass):
    corpus, passes = small_pass["report_exact"]
    reference = oracle.load_reference("report_exact")
    reference["seeds"][str(SEED)]["report:n2_cuntz"] = "0" * 64
    attempted, failures = run.score(corpus, passes, reference)
    assert attempted == 3 and list(failures) == [(0, "report:n2_cuntz")]


def test_corrupted_exact_answer_fails_the_float_run(small_pass):
    corpus, passes = small_pass["report_float"]
    reference = copy.deepcopy(oracle.load_reference("report_float"))
    reference["exact"]["report:n3_sub_cuntz"]["cdim"]["levels"][-1] += 1
    attempted, failures = run.score(corpus, passes, reference)
    assert attempted == 3 and list(failures) == [(0, "report:n3_sub_cuntz")]


def test_wrong_float_number_fails_the_float_run(small_pass):
    corpus, passes = small_pass["report_float"]
    reference = copy.deepcopy(oracle.load_reference("report_float"))
    reference["exact"]["fcs:n2_cuntz"]["omega"][0] = ["1/7", 0]
    attempted, failures = run.score(corpus, passes, reference)
    assert list(failures) == [(0, "fcs:n2_cuntz")]


def test_wrong_selftest_detail_is_counted():
    corpus = corpus_mod.build("selftest", SEED)
    reference = oracle.load_reference("selftest")
    records = [{"label": label, "seconds": 0.1, "rc": 0, "exception": None, "stdout": detail}
               for label, detail in reference["details"].items()]
    assert run.score(corpus, [{"records": records}], reference)[1] == {}
    records[0]["stdout"] = "tampered"
    assert list(run.score(corpus, [{"records": records}], reference)[1]) == [(0, records[0]["label"])]
