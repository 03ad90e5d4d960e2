"""Golden outputs: exact ``report --format json`` must not move.

``tests/golden/specs/`` holds one light spec per family at n = 2 (plus the
extra members of one pairwise report, and ``gauge_word_n3``, the word state
123 on n = 3 under an exact unitary); ``tests/golden/<name>.json`` holds the
exact stdout of ``cuntzlab report <spec> --format json`` for each of them, and
``tests/golden/pairwise.json`` that of one report over ``PAIRWISE``, whose
pairs reach every rule of ``equivalent`` and whose states reach every purity
reason.  The expected files were written by the code before the per-state
facts record replaced the family switches, so a refactor that changes any
printed answer fails here.  ``tests/golden/<name>.fcs.json`` holds the stdout
of ``cuntzlab fcs <spec> --format json`` for every spec: those of the gauge
twists were written while every twisted moment was still the double sum over
both gauge images, the others before the Gram growth, the PSD gate and the
grading moved onto one L D L* kernel.  They pin the pivot order, the metric
and the A_i the factor drives, or the lower bound where the rank still grows
at the level cap.  A deliberate answer change regenerates the file and says
so in CHANGES.md.

``tests/golden/<name>.moments.json`` holds the stdout of
``cuntzlab moments <spec> --level 3 --format json`` for every spec, and
``tests/golden/vector_lazy.kappa.json`` and ``.kappa.txt`` that of ``cuntzlab
kappa`` on the lazy Thue-Morse state in both formats (the text one carries the
delta-table re-check line).  All were written before the induced-product,
shift and grid states and the exact twists of them read their moments off a
vector model, so they pin every moment value and its printed form.  The files
of ``vector_sturmian``, the lazy Sturmian state, were written once its keys
compared as tuples; only its ``kappa`` text moved then, from a failed
delta-table re-check to evidence.

Every golden state has a vector model of its own, so every spec twisted by
a complex unitary steps it and none expands the gauge images.
``tests/golden/sandwich_series.gauge.json`` holds the stdout of ``cuntzlab
report --format json`` on the series sandwich twisted by that unitary,
written while the twist still stepped the sandwich's word model.  Float
``moments --level 3`` of every spec stays within a fixed bound of its exact
golden file.

The exact twins of the benchmark's heavy float states (dense sub-Cuntz
states of order 6 and 7 over n = 2 and of order 4 over n = 3), the largest
fixed-point solves, must print the exact ``report`` and ``fcs`` answers the
benchmark recorded for them in ``bench/reference/report_float.json``, which
this suite only reads.

The demo smoke test runs every script under ``demos/`` in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cuntzlab.cli import run
from cuntzlab.specio import parse_spec

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
SPECS = sorted(p.stem for p in (GOLDEN / "specs").glob("*.json"))
FCS_SPECS = sorted(p.name.removesuffix(".fcs.json") for p in GOLDEN.glob("*.fcs.json"))
MOMENT_SPECS = sorted(p.name.removesuffix(".moments.json") for p in GOLDEN.glob("*.moments.json"))
KAPPA_SPECS = sorted(p.name.removesuffix(".kappa.json") for p in GOLDEN.glob("*.kappa.json"))
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))
REPORT_FLOAT_REFERENCE = HERE.parent / "bench" / "reference" / "report_float.json"

# repeated names give the pairs of equal tensors and equal progression codes
PAIRWISE = [
    "cuntz", "cuntz_swapped", "cuntz_10", "gauge", "geometric_progression", "gauge_progression",
    "sandwich_series", "sandwich_user", "sandwich", "shift", "shift_21", "shift_112", "vector_shift",
    "vector_grid", "vector_lazy", "gauge_shift", "gauge_sub_cuntz", "sub_cuntz", "sub_cuntz",
    "sub_cuntz_swapped", "sub_cuntz_twisted", "sub_cuntz_power", "progression_a", "progression_a",
    "progression_b", "progression_open", "induced_product", "induced_shifted", "induced_other",
    "mixture", "prefix_code",
]


def _stdout(command, names, capsys, *options, fmt="json") -> str:
    paths = [str(GOLDEN / "specs" / f"{name}.json") for name in names]
    assert run([command, *paths, *options, "--format", fmt]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", SPECS)
def test_single_report(name, capsys):
    assert _stdout("report", [name], capsys) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["report", "fcs"])
def test_heavy_exact_twins_match_the_benchmark_reference(command, heavy_twins, tmp_path, capsys):
    reference = json.loads(REPORT_FLOAT_REFERENCE.read_text(encoding="utf-8"))["exact"]
    found, expected = {}, {}
    for name, spec in sorted(heavy_twins.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert run([command, str(path), "--format", "json"]) == 0
        found[name] = json.loads(capsys.readouterr().out)
        expected[name] = reference[f"{command}:{name}"]
    assert found == expected


@pytest.mark.parametrize("name", FCS_SPECS)
def test_single_fcs(name, capsys):
    assert _stdout("fcs", [name], capsys) == (GOLDEN / f"{name}.fcs.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", MOMENT_SPECS)
def test_single_moments(name, capsys):
    out = _stdout("moments", [name], capsys, "--level", "3")
    assert out == (GOLDEN / f"{name}.moments.json").read_text(encoding="utf-8")


# the largest |float - exact| over the level-3 moments of every golden spec
# was 4.7e-13 (gauge_word_n3; 0 for every other spec once printed), so the
# bound leaves a factor of two
FLOAT_MOMENT_BOUND = 1e-12


def _moment_values(doc: dict) -> list:
    def part(x):
        return float(Fraction(x)) if isinstance(x, str) else float(x)

    return [(row["J"], row["K"], complex(part(row["value"][0]), part(row["value"][1]))) for row in doc["moments"]]


@pytest.mark.parametrize("name", MOMENT_SPECS)
def test_float_moments_stay_near_the_exact_golden(name, capsys):
    got = _moment_values(json.loads(_stdout("moments", [name], capsys, "--level", "3", "--mode", "float")))
    want = _moment_values(json.loads((GOLDEN / f"{name}.moments.json").read_text(encoding="utf-8")))
    assert [(J, K) for J, K, _ in got] == [(J, K) for J, K, _ in want]
    worst = max(abs(a - b) for (_, _, a), (_, _, b) in zip(got, want))
    assert worst <= FLOAT_MOMENT_BOUND, worst


@pytest.mark.parametrize("name", KAPPA_SPECS)
@pytest.mark.parametrize("fmt", ["json", "md"])
def test_single_kappa(name, fmt, capsys):
    suffix = "json" if fmt == "json" else "txt"
    out = _stdout("kappa", [name], capsys, fmt=fmt)
    assert out == (GOLDEN / f"{name}.kappa.{suffix}").read_text(encoding="utf-8")


# the complex unitary of the twist tests, block-extended by 1 on n = 3
G_C = {
    2: [[["3/5", 0], [0, "4/5"]], [[0, "4/5"], ["3/5", 0]]],
    3: [[["3/5", 0], [0, "4/5"], 0], [[0, "4/5"], ["3/5", 0], 0], [0, 0, 1]],
}


def _twist_file(name: str, tmp_path: Path) -> str:
    path = GOLDEN / "specs" / f"{name}.json"
    twist = tmp_path / "twist.json"
    twist.write_text(json.dumps({"family": "gauge", "base": json.loads(path.read_text(encoding="utf-8")),
                                 "g": G_C[parse_spec(str(path)).n]}), encoding="utf-8")
    return str(twist)


@pytest.mark.parametrize("name", SPECS)
def test_every_golden_state_has_a_model(name):
    assert parse_spec(str(GOLDEN / "specs" / f"{name}.json")).facts.model is not None


@pytest.mark.parametrize("name", SPECS)
def test_a_twist_expands_only_a_base_with_neither_model(name, tmp_path, monkeypatch, capsys):
    # a base without a model of its own would step its word model, whose
    # twisted vectors are the gauge images alpha_g(s_J) and whose inner
    # product is moment_of_pair; every golden base has one, and constructing
    # any golden twist grows no Gram basis
    import cuntzlab.classify as classify
    from cuntzlab.moments import MomentFunctional

    expanded = []
    moment_of_pair = MomentFunctional.moment_of_pair

    def spy(omega, x, y):
        expanded.append(omega.family)
        return moment_of_pair(omega, x, y)

    monkeypatch.setattr(MomentFunctional, "moment_of_pair", spy)

    def refuse(*args, **kwargs):
        raise AssertionError("a Gram growth")

    monkeypatch.setattr(classify, "gram_growth", refuse)
    assert run(["moments", _twist_file(name, tmp_path), "--level", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)
    assert expanded == []


def test_series_twist_report(tmp_path, capsys):
    assert run(["report", _twist_file("sandwich_series", tmp_path), "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "sandwich_series.gauge.json").read_text(encoding="utf-8")


def test_pairwise_report(capsys):
    assert _stdout("report", PAIRWISE, capsys) == (GOLDEN / "pairwise.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
