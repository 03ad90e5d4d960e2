"""The parent-versus-change output check in ``tools/same_outputs.py``: its
command set and the number comparison of its json outputs (the script's
runs are not repeated here)."""

import importlib.util
import json
from pathlib import Path

import pytest

from cuntzlab.specio import state_from_spec
from cuntzlab.words import words_upto

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
            workdir, argv = plan[f"{group}/json/fcs_float:{name}"]
            assert argv == ["fcs", argv[1], "--mode", "float", "--format", "json"]
            assert argv[1] == plan[f"{group}/json/fcs:{name}"][1][1]
    for group in ("golden", "twist"):
        assert sum(label.startswith(f"{group}/json/fcs_float:") for label in plan) == len(specs) == 31
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
    # exact and float tables from the minimum-norm step: a kernel of ten vectors
    workdir, argv = plan["solve/json/moments:one_word_1x10"]
    assert argv == ["moments", "one_word_1x10.json", "--level", "3", "--format", "json"]
    assert (Path(workdir) / argv[1]).is_file()
    assert plan["solve/json/moments_float:one_word_1x10"] == (workdir, [*argv, "--mode", "float"])
    # and two underdetermined codes with non-real minimum-norm tables, exact and float
    for name, (family, dim) in {"one_word_12x2": ("prefix_code", 2), "tensor_cube": ("sub_cuntz", 3)}.items():
        workdir, argv = plan[f"solve/json/moments:{name}"]
        assert argv == ["moments", f"{name}.json", "--level", "3", "--format", "json"]
        omega = state_from_spec(json.loads((Path(workdir) / argv[1]).read_text(encoding="utf-8")))
        assert omega.family == family and omega.facts.solution_dim == dim
        assert any(complex(omega.moment(J, ())).imag for J in words_upto(2, 4))
        assert plan[f"solve/json/moments_float:{name}"] == (workdir, [*argv, "--mode", "float"])
    assert sum(label.startswith("solve/") for label in plan) == 13


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


def test_equiv_pairs_of_the_tensor_conjugacy_rule(tmp_path):
    from cuntzlab.scalars import conj
    from cuntzlab.selftest import _PHASES
    from cuntzlab.specio import scalar_from_json

    plan = same_outputs.build_plan(tmp_path)
    equiv = {label: plan[label] for label in plan if label.startswith("equiv/")}
    assert len(equiv) == 4 * 28 + 6 + 3
    assert all(argv[0] == "equiv" and argv[-2:] == ["--format", "json"] for _, argv in equiv.values())
    # selftest's phase-marked word states, every pair of each depth
    assert [scalar_from_json(c) for c in same_outputs.MARKED_PHASES] == [conj(c) for c in _PHASES]
    workdir, argv = equiv["equiv/json/phase_d3:0-7"]
    first, last = (json.loads((Path(workdir) / file).read_text(encoding="utf-8")) for file in argv[1:3])
    assert first == {"family": "sub_cuntz", "n": 2, "m": 3, "z": [0, 0, 0, 0, 0, 0, [1, 0], 0]}
    assert last["z"][6] == ["5/13", "-12/13"]
    assert sum(label.startswith("equiv/json/phase_d") for label in equiv) == 4 * 28
    # the golden order-2 states, every ordered pair, read from the golden specs
    workdir, argv = equiv["equiv/json/golden:sub_cuntz_twisted-sub_cuntz"]
    assert argv[1:3] == ["sub_cuntz_twisted.json", "sub_cuntz.json"]
    assert json.loads((Path(workdir) / argv[1]).read_text(encoding="utf-8")) == json.loads(
        (same_outputs.GOLDEN_SPECS / "sub_cuntz_twisted.json").read_text(encoding="utf-8"))
    # a float dense rank-one tensor against its three rotations
    specs = same_outputs.rank_one_specs()
    for s in (1, 2, 3):
        workdir, argv = equiv[f"equiv/json/rank_one_float:rot{s}"]
        assert argv == ["equiv", "rank_one_rot0.json", f"rank_one_rot{s}.json", "--mode", "float", "--format", "json"]
        assert json.loads((Path(workdir) / argv[2]).read_text(encoding="utf-8")) == specs[s]
    z = [complex(*c) for c in specs[0]["z"]]
    assert all(z) and abs(sum(abs(c) ** 2 for c in z) - 1) < 1e-12
    # the rotation by two letters swaps x1 (x) x2 to x2 (x) x1
    assert complex(*specs[2]["z"][0b0111]) == z[0b1101]


def test_rep_on_each_kind_of_representation(tmp_path):
    from cuntzlab import rep_from_spec

    plan = same_outputs.build_plan(tmp_path)
    assert sorted(label for label in plan if label.startswith("rep/")) == sorted(
        f"rep/{fmt}/rep:{name}" for name in same_outputs.REPS for fmt in ("json", "md"))
    kinds = set()
    for name in same_outputs.REPS:
        workdir, argv = plan[f"rep/json/rep:{name}"]
        assert argv == ["rep", f"{name}.json", "--format", "json"]
        assert plan[f"rep/md/rep:{name}"] == (workdir, ["rep", f"{name}.json"])
        rep = rep_from_spec(json.loads((Path(workdir) / argv[1]).read_text(encoding="utf-8")))
        kinds.add((type(rep).__name__, getattr(rep.word, "name", None) if hasattr(rep, "word") else rep.n))
    # the grid over n = 2 and 3, an eventually periodic shift word and both lazy presets
    assert kinds >= {("GridRepresentation", 2), ("GridRepresentation", 3),
                     ("LazyShiftRepresentation", "thue_morse"), ("LazyShiftRepresentation", "sturmian")}
    assert ("ShiftRepresentation", None) in kinds


def test_strict_commands_on_every_golden_spec_its_twist_and_each_rep(tmp_path):
    plan = same_outputs.build_plan(tmp_path)
    strict = {label: plan[label] for label in plan if label.startswith("strict/")}
    specs = sorted(p.stem for p in same_outputs.GOLDEN_SPECS.glob("*.json"))
    assert len(strict) == 2 * len(specs) * 5 + len(same_outputs.REPS)
    for name in specs:
        for stem in (name, f"{name}.gauge"):
            for command in ("report", "cdim", "kappa", "fcs", "pure"):
                workdir, argv = strict[f"strict/md/{command}:{stem}"]
                assert argv == [command, f"{stem}.json", "--strict"]
                assert (Path(workdir) / argv[1]).is_file()
    for name in same_outputs.REPS:
        workdir, argv = strict[f"strict/md/rep:{name}"]
        assert argv == ["rep", f"{name}.json", "--strict"] and (Path(workdir) / argv[1]).is_file()


def test_failing_commands_in_both_formats(tmp_path):
    from cuntzlab import rep_from_spec

    plan = same_outputs.build_plan(tmp_path)
    errors = {label: plan[label] for label in plan if label.startswith("errors/")}
    assert sorted(errors) == sorted(f"errors/{fmt}/{name}" for name in same_outputs.ERRORS for fmt in ("json", "md"))
    for name, want in same_outputs.ERRORS.items():
        workdir, argv = errors[f"errors/md/{name}"]
        assert argv == want and errors[f"errors/json/{name}"] == (workdir, [*argv, "--format", "json"])
    workdir = Path(errors["errors/md/cdim:rep_spec"][0])
    assert rep_from_spec(json.loads((workdir / "grid.json").read_text(encoding="utf-8"))).n == 2
    assert state_from_spec(json.loads((workdir / "cuntz.json").read_text(encoding="utf-8"))).family == "cuntz"
    assert not (workdir / "missing.json").exists()
    assert json.loads((workdir / "unknown_family.json").read_text(encoding="utf-8")) == {"family": "unknown"}
    with pytest.raises(json.JSONDecodeError):
        json.loads((workdir / "not_json.json").read_text(encoding="utf-8"))
    # the nested gauge specs: the Cuntz state twisted by the swap, depth times
    text = (workdir / "deep_400.json").read_text(encoding="utf-8")
    assert text == same_outputs.nested_gauge(400) and text.count('"gauge"') == 400
    assert (workdir / "deep_3000.json").read_text(encoding="utf-8").count('"gauge"') == 3000
    # mixtures whose weights sum to 1 but are not real, of two Cuntz states and of one twice
    for name, second in (("complex_weights", [0, 1]), ("complex_weights_equal", [1, 0])):
        spec = json.loads((workdir / f"{name}.json").read_text(encoding="utf-8"))
        assert spec["family"] == "mixture" and spec["weights"] == [["1/2", "1/10"], ["1/2", "-1/10"]]
        assert [c["z"] for c in spec["components"]] == [[1, 0], second]
    assert len(errors) == 2 * 13
    assert json.loads(same_outputs.nested_gauge(2)) == {
        "family": "gauge", "base": {"family": "gauge", "base": {"family": "cuntz", "z": [1, 0]},
                                    "g": [[0, 1], [1, 0]]}, "g": [[0, 1], [1, 0]]}
