"""The parent-versus-change output check in ``tools/same_outputs.py``: its
command set and the number comparison of its json outputs (the script's
runs are not repeated here)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_numbers_that_moved_are_counted_with_the_largest_delta():
    old = {"A": [[0.5, 0.0], [1.0, 2.5e-16]], "d": 2, "words": ["()", "1"]}
    new = {"A": [[0.5, 0.0], [1.0, 0.0]], "d": 2, "words": ["()", "1"]}
    assert same_outputs.number_drift(old, new) == (1, 2.5e-16)
    # an exact entry and a type change count as moved, the latter by 0
    assert same_outputs.number_drift(["1/3", 1.0], ["1/3", 1]) == (1, 0.0)
    assert same_outputs.number_drift({"d": 2}, {"d": 3}) == (1, 1.0)
    # a different shape or text is not a drift
    assert same_outputs.number_drift({"A": [1]}, {"A": [1, 2]}) is None
    assert same_outputs.number_drift({"note": "a"}, {"note": "b"}) is None


def test_the_command_set_covers_every_golden_spec_and_its_twist(tmp_path):
    plan = same_outputs.build_plan(tmp_path)
    specs = sorted(p.stem for p in same_outputs.GOLDEN_SPECS.glob("*.json"))
    for name in specs:
        for command in (*same_outputs.GOLDEN_COMMANDS, "moments"):
            assert f"golden/json/{command}:{name}" in plan
            assert f"twist/json/{command}:{name}" in plan
        for group in ("golden", "twist"):
            workdir, argv = plan[f"{group}/json/kappa_search:{name}"]
            assert argv[0] == "kappa" and "--search-certificates" in argv and argv[-2:] == ["--format", "json"]
            assert (Path(workdir) / argv[1]).is_file()
    workdir, argv = plan["twist/json/fcs:gauge_word_n3"]
    twist = json.loads((Path(workdir) / argv[1]).read_text(encoding="utf-8"))
    assert len(twist["g"]) == 3
    assert sum(label.startswith("report_float/") for label in plan) == 4 * sum(
        label.startswith("report_float/1/json/") for label in plan)
    assert plan["selftest/json/selftest"][1] == ["selftest", "--format", "json"]
    # the heavy exact twins and the one-word code 1^10, whose solves are the largest
    for name in ("n2_heavy_dense_m6", "n2_heavy_dense_m7", "n3_heavy_dense_m4"):
        for command in ("report", "fcs"):
            workdir, argv = plan[f"solve/json/{command}:{name}"]
            spec = json.loads((Path(workdir) / argv[1]).read_text(encoding="utf-8"))
            assert spec["family"] == "sub_cuntz" and argv[0] == command
    workdir, argv = plan["solve/json/report:one_word_1x10"]
    assert json.loads((Path(workdir) / argv[1]).read_text(encoding="utf-8"))["code"] == [[1] * 10]
    # a float table from the minimum-norm step: a kernel of ten vectors
    workdir, argv = plan["solve/json/moments:one_word_1x10"]
    assert argv[0] == "moments" and argv[argv.index("--mode") + 1] == "float"
    assert (Path(workdir) / argv[1]).is_file()
    assert sum(label.startswith("solve/") for label in plan) == 8


def test_float_moments_on_every_golden_fixed_point_table(tmp_path):
    plan = same_outputs.build_plan(tmp_path)
    floats = {label.split(":", 1)[1] for label in plan if label.startswith("golden/json/moments_float:")}
    assert floats == {"gauge_progression", "gauge_sub_cuntz", "gauge_word_n3", "geometric_progression",
                      "prefix_code", "progression_a", "progression_b", "progression_open", "sub_cuntz",
                      "sub_cuntz_power", "sub_cuntz_swapped", "sub_cuntz_twisted"}
    for name in floats:
        workdir, argv = plan[f"golden/json/moments_float:{name}"]
        assert argv == ["moments", f"{name}.json", "--level", "3", "--mode", "float", "--format", "json"]
        assert (Path(workdir) / argv[1]).is_file()


def test_selftest_seconds_are_dropped_before_comparing():
    doc = {"ok": True, "results": [{"name": "a", "ok": True, "seconds": 0.25}]}
    record = same_outputs._normalize("selftest/json/selftest", [0, json.dumps(doc), "", None])
    assert "seconds" not in record[1] and json.loads(record[1])["results"][0]["name"] == "a"


def test_every_fixed_float_member_has_an_exact_twin(tmp_path):
    plan = same_outputs.build_plan(tmp_path)
    twins = same_outputs.float_twins(plan)
    pairs = [pair for by_seed in twins.values() for pair in by_seed.values()]
    assert all(label in plan and twin in plan for label, twin in pairs)
    assert twins["report:n2_cuntz"][1] == ("report_float/1/json/report:n2_cuntz", "report_exact/1/json/report:n2_cuntz")
    # a heavy float state's twin is the solve command on its exact twin
    assert twins["fcs:n2_heavy_dense_m7"][99] == ("report_float/99/json/fcs:n2_heavy_dense_m7",
                                                  "solve/json/fcs:n2_heavy_dense_m7")
    # seeded members and pairwise reports have none
    assert not any("seed" in label or label.startswith("pairwise") for label in twins)
    assert len(twins) == 2 * (16 + 3)


def test_twin_drift_is_the_largest_delta_or_none_on_a_shape_change():
    results = {"float": [0, json.dumps({"A": [0.5000000001, 1.0]}), "", None],
               "exact": [0, json.dumps({"A": ["1/2", 1]}), "", None],
               "other": [0, json.dumps({"A": ["1/2"]}), "", None]}
    assert abs(same_outputs.twin_drift(results, [("float", "exact")]) - 1e-10) < 1e-15
    assert same_outputs.twin_drift(results, [("float", "exact"), ("float", "other")]) is None


def test_the_golden_pairwise_report_and_its_twist_in_both_formats(tmp_path):
    from test_golden import PAIRWISE

    assert same_outputs.PAIRWISE == PAIRWISE
    plan = same_outputs.build_plan(tmp_path)
    assert sorted(label for label in plan if label.startswith("pairwise/")) == [
        "pairwise/json/report:golden", "pairwise/json/report:twist",
        "pairwise/md/report:golden", "pairwise/md/report:twist"]
    for group, suffix in (("golden", ".json"), ("twist", ".gauge.json")):
        files = [f"{name}{suffix}" for name in PAIRWISE]
        workdir, argv = plan[f"pairwise/json/report:{group}"]
        assert argv == ["report", *files, "--format", "json"]
        assert plan[f"pairwise/md/report:{group}"] == (workdir, ["report", *files])
        for file, name in zip(files, PAIRWISE):
            spec = json.loads((Path(workdir) / file).read_text(encoding="utf-8"))
            golden = json.loads((same_outputs.GOLDEN_SPECS / f"{name}.json").read_text(encoding="utf-8"))
            twist = {"family": "gauge", "base": golden, "g": same_outputs.G_C[2]}
            assert spec == (golden if group == "golden" else twist)
