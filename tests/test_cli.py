"""Command-line interface: frozen output lines, exit codes, JSON shapes."""

import argparse
import json
import os
import subprocess
import sys
import tomllib
from math import inf
from pathlib import Path

import pytest

import cuntzlab
import cuntzlab.cli as cli
from cuntzlab import CdimResult, CuntzLabError, KappaResult, LowerBoundOnly, ProperlyInfinite, errors
from cuntzlab.cli import run
from cuntzlab.specio import parse_spec

CUNTZ35 = {"family": "cuntz", "z": [["3/5", 0], ["4/5", 0]]}
WORD12 = {"family": "prefix_code", "n": 2, "code": [[1, 2]], "z": [1]}
WORD21 = {"family": "prefix_code", "n": 2, "code": [[2, 1]], "z": [1]}
SHIFT112 = {"family": "shift", "n": 2, "word": {"pre": [1], "per": [1, 2]}}
SANDWICH = {
    "family": "sandwich",
    "base": {"family": "cuntz", "z": [1, 0]},
    "terms": [[1, {"n": 2, "terms": [{"J": [2], "K": [], "re": 1, "im": 0}]}]],
}
GRID_STATE = {"family": "vector", "rep": {"kind": "grid", "n": 2}, "key": [1, 0]}
GRID_REP = {"kind": "grid", "n": 2}
SERIES = {"family": "sandwich_series"}
# kappa 2 by a minimality certificate; the word state 112 has kappa 3, but its
# Gram rank is still growing at level 2
CODE_STATE = {"family": "prefix_code", "n": 2, "code": [[1, 1], [1, 2], [2]],
              "z": [["2/3", 0], ["1/3", 0], [0, "2/3"]]}
WORD112 = {"family": "sub_cuntz", "n": 2, "m": 3, "z": [0, 1, 0, 0, 0, 0, 0, 0]}
# no family fact certifies kappa here, but the search finds u = s_1
TRIVIAL_SANDWICH = {
    "family": "sandwich",
    "base": {"family": "cuntz", "z": [1, 0]},
    "terms": [[1, {"n": 2, "terms": [{"J": [], "K": [], "re": 1, "im": 0}]}]],
}
EVEN_MIXTURE = {"family": "mixture", "components": [{"family": "cuntz", "z": [1, 0]}, {"family": "cuntz", "z": [0, 1]}],
                "weights": [["1/2", 0], ["1/2", 0]]}


def _nested_gauge(depth: int) -> str:
    """The JSON text of CUNTZ35 twisted by the swap ``depth`` times, built as
    text since json.dumps recurses too."""
    return '{"family": "gauge", "base": ' * depth + json.dumps(CUNTZ35) + ', "g": [[0, 1], [1, 0]]}' * depth


def _run_python(code, *args, timeout=60):
    """Run ``code`` (or ``python -m cuntzlab.cli`` when None) in a fresh interpreter on this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    head = ["-m", "cuntzlab.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], capture_output=True, text=True, timeout=timeout, env=env)


class TestCdim:
    def test_cuntz_line(self, spec_file, capsys):
        assert run(["cdim", spec_file(CUNTZ35)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "cdim=1 (stabilized); levels 1, 1"
        assert out[1] == "pivot words: ()"

    def test_shift_line(self, spec_file, capsys):
        assert run(["cdim", spec_file(SHIFT112)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "cdim=3 (stabilized); levels 1, 2, 3, 3"
        assert out[1] == "pivot words: (), 1, 11"

    def test_growing_state_reports_bound(self, spec_file, capsys):
        assert run(["cdim", spec_file(SERIES), "--max-level", "4"]) == 0
        out = capsys.readouterr().out
        assert "cdim>=13 (lower bound at level 4)" in out
        assert "levels 1, 3, 6, 9, 13" in out

    def test_json_shape(self, spec_file, capsys):
        assert run(["cdim", spec_file(CUNTZ35), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cdim"] == {
            "value": 1,
            "status": "stabilized",
            "levels": [1, 1],
            "pivot_words": [[]],
        }


class TestKappa:
    def test_minimal_certificate_line(self, spec_file, capsys):
        assert run(["kappa", spec_file(WORD12)]) == 0
        out = capsys.readouterr().out.splitlines()[0]
        assert out == "κ=2 (Minimal; u = s[12]); cdim 2 (stabilized)"

    def test_shift_period_line(self, spec_file, capsys):
        assert run(["kappa", spec_file(SHIFT112)]) == 0
        out = capsys.readouterr().out.splitlines()[0]
        assert out == "κ=2 (ShiftPeriod d=2); cdim 3 (stabilized)"

    def test_properly_infinite_line(self, spec_file, capsys):
        assert run(["kappa", spec_file(GRID_STATE)]) == 0
        out = capsys.readouterr().out.splitlines()[0]
        assert out == "κ=infinite (ProperlyInfinite, proved); cdim lower bound 9 at level 8"

    def test_unresolved_sandwich(self, spec_file, capsys):
        assert run(["kappa", spec_file(SANDWICH)]) == 0
        out = capsys.readouterr().out.splitlines()[0]
        assert out.startswith("κ=unresolved (LowerBoundOnly in [1, 2] at level 2")

    def test_strict_mode_fails_unresolved(self, spec_file, capsys):
        assert run(["kappa", spec_file(SANDWICH), "--strict"]) == 3

    def test_strict_mode_passes_resolved(self, spec_file):
        assert run(["kappa", spec_file(WORD12), "--strict"]) == 0

    def test_series_state_line(self, spec_file, capsys):
        assert run(["kappa", spec_file(SERIES)]) == 0
        out = capsys.readouterr().out.splitlines()[0]
        assert out.startswith("κ=1 (EquivalentToCuntz; z = (1, 0); provenance family)")
        assert "cdim lower bound" in out

    def test_json_certificate(self, spec_file, capsys):
        assert run(["kappa", spec_file(SHIFT112), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kappa"] == {"value": 2, "certificate": "shift_period", "d": 2}
        assert doc["cdim"]["value"] == 3

    def test_search_certificates_line(self, spec_file, capsys):
        path = spec_file(TRIVIAL_SANDWICH)
        assert run(["kappa", path, "--strict"]) == 3
        assert capsys.readouterr().out.splitlines()[0].startswith("κ=unresolved (LowerBoundOnly in [1, 1] at level 1")
        assert run(["kappa", path, "--search-certificates", "--strict"]) == 0
        assert capsys.readouterr().out.splitlines() == ["κ=1 (Minimal; u = s[1]); cdim 1 (stabilized)"]

    def test_search_certificates_json_keeps_the_cdim_part(self, spec_file, capsys):
        assert run(["kappa", spec_file(TRIVIAL_SANDWICH), "--search-certificates", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kappa"] == {"value": 1, "certificate": "minimal",
                                "u": {"n": 2, "terms": [{"J": [1], "K": [], "re": 1, "im": 0}]}}
        assert doc["cdim"] == {"value": 1, "status": "stabilized", "levels": [1, 1]}

    def test_failed_search_is_unresolved(self, spec_file, capsys):
        args = ["kappa", spec_file(EVEN_MIXTURE), "--search-certificates", "--search-depth", "2", "--strict"]
        assert run(args) == 3
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("κ=unresolved (LowerBoundOnly in [1, 2] at level 2")
        assert "a prefix-code search up to depth 2 found no certificate); cdim 2 (stabilized)" in line


class TestEquiv:
    def test_equivalent_pair(self, spec_file, capsys):
        assert run(["equiv", spec_file(WORD12), spec_file(WORD21)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Equivalent (")
        assert "tail equivalent" in out

    def test_inequivalent_pair(self, spec_file, capsys):
        assert run(["equiv", spec_file(WORD12), spec_file(CUNTZ35)]) == 0
        assert capsys.readouterr().out.startswith("Inequivalent")

    def test_strict_unknown_fails(self, spec_file, capsys):
        mixture = {
            "family": "mixture",
            "components": [
                {"family": "cuntz", "z": [1, 0]},
                {"family": "cuntz", "z": [0, 1]},
            ],
            "weights": ["1/2", "1/2"],
        }
        code = run(["equiv", spec_file(WORD12), spec_file(mixture), "--strict"])
        assert code == 3

    def test_kappa_separation_respects_level_cap(self, spec_file, capsys):
        specs = [spec_file(CODE_STATE), spec_file(WORD112)]
        assert run(["equiv", *specs]) == 0
        assert capsys.readouterr().out.startswith(
            "Inequivalent (the invariant kappa separates the states (2 vs 3)"
        )
        assert run(["equiv", *specs, "--max-level", "2"]) == 0
        assert capsys.readouterr().out.startswith("Unknown (")


class TestPure:
    def test_pure_line(self, spec_file, capsys):
        assert run(["pure", spec_file(CUNTZ35)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Pure (")

    def test_unknown_purity(self, spec_file, capsys):
        assert run(["pure", spec_file(WORD12)]) == 0
        assert capsys.readouterr().out.startswith("Unknown (")


class TestMoments:
    def test_table_header_and_values(self, spec_file, capsys):
        assert run(["moments", spec_file(CUNTZ35), "--level", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "moments omega(s_J s_K*) up to level 1 (n=2)"
        assert "| J | K | value |" in lines
        assert "| 1 | 2 | 12/25 |" in lines
        assert "| () | 1 | 3/5 |" in lines

    def test_json_moments(self, spec_file, capsys):
        assert run(["moments", spec_file(CUNTZ35), "--level", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 2
        assert doc["level"] == 1
        by_jk = {(tuple(m["J"]), tuple(m["K"])): m["value"] for m in doc["moments"]}
        assert by_jk[((1,), (2,))] == ["12/25", 0]
        assert by_jk[((), ())] == [1, 0]


class TestFcs:
    def test_json_presentation(self, spec_file, capsys):
        assert run(["fcs", spec_file(CUNTZ35), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 1
        assert doc["A"][0] == [[["3/5", 0]]]
        assert doc["A"][1] == [[["4/5", 0]]]
        assert doc["omega"] == [[1, 0]]
        assert doc["metric"] == [[[1, 0]]]


class TestRep:
    def test_grid_rep_summary(self, spec_file, capsys):
        assert run(["rep", spec_file(GRID_REP)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "κ=infinite (ProperlyInfinite, proved)"
        assert lines[1] == "endomorphism invariants: powers index 2, κ infinite"
        assert lines[2] == "spectrum bucket: infinite"

    @pytest.mark.parametrize(
        "command, spec, message",
        [
            ("rep", {"kind": "shift", "n": "2", "word": {"pre": [], "per": [1]}},
             'representation spec (shift): "n" must be an integer >= 2, got \'2\''),
            ("kappa", {"family": "vector", "rep": {"kind": "lazy", "preset": "thue_morse", "horizon": "64"},
                       "key": [[], 0]},
             'representation spec (lazy): "horizon" must be an integer >= 1, got \'64\''),
            ("rep", {"kind": "lazy", "preset": "thue_morse", "horizon": 2.5},
             'representation spec (lazy): "horizon" must be an integer >= 1, got 2.5'),
            ("rep", {"kind": "shift", "n": 2.0, "word": {"pre": [1], "per": [1, 2]}},
             'representation spec (shift): "n" must be an integer >= 2, got 2.0'),
        ],
        ids=["string_n", "string_horizon", "float_horizon", "float_n"],
    )
    def test_integer_fields_checked_at_the_boundary(self, spec_file, capsys, command, spec, message):
        assert run([command, spec_file(spec)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestReport:
    def test_single_state_json(self, spec_file, capsys):
        assert run(["report", spec_file(WORD12), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cdim"] == {"value": 2, "status": "stabilized", "levels": [1, 2, 2]}
        assert doc["kappa"]["value"] == 2
        assert doc["kappa"]["certificate"] == "minimal"
        assert doc["kappa"]["u"]["terms"][0]["J"] == [1, 2]
        assert doc["pure"] is None
        assert doc["bucket"] == 2

    def test_multi_state_pairwise(self, spec_file, capsys):
        assert run(["report", spec_file(WORD12), spec_file(WORD21)]) == 0
        out = capsys.readouterr().out
        assert "## pairwise equivalence" in out
        assert "Equivalent (" in out

    def test_multi_state_json(self, spec_file, capsys):
        assert (
            run(["report", spec_file(WORD12), spec_file(WORD21), "--format", "json"]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["states"]) == 2
        assert doc["pairwise"][0]["verdict"] == "Equivalent"

    def test_pairwise_verdict_respects_level_cap(self, spec_file, capsys):
        specs = [spec_file(CODE_STATE), spec_file(WORD112)]
        assert run(["report", *specs, "--max-level", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["states"][1]["kappa"]["value"] is None
        assert doc["states"][1]["bucket"] == "unresolved"
        assert doc["pairwise"][0]["verdict"] == "Unknown"


class TestErrors:
    def test_bad_norm_exit_one(self, spec_file, capsys):
        code = run(["cdim", spec_file({"family": "cuntz", "z": [1, 1]})])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "squared norm 2" in err

    def test_missing_file_exit_one(self, capsys):
        assert run(["cdim", "/nonexistent.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_every_error_of_the_package_is_a_cuntzlab_error(self):
        # run turns a CuntzLabError into one error line and exit 1
        for name in errors.__all__:
            assert issubclass(getattr(errors, name), CuntzLabError), name

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"family": "sub_cuntz", "n": 2, "m": "2", "z": [0, 1, 0, 0]},
             'state spec (sub_cuntz): "m" must be an integer >= 1, got \'2\''),
            ({"family": "geometric_progression", "n": 2, "k": 2.0, "z": [0, 1, 0]},
             'state spec (geometric_progression): "k" must be an integer >= 1, got 2.0'),
            ({"family": "shift", "n": True, "word": {"pre": [], "per": [1]}},
             'state spec (shift): "n" must be an integer >= 2, got True'),
            ({"family": "prefix_code", "n": 1, "code": [[1]], "z": [1]},
             'state spec (prefix_code): "n" must be an integer >= 2, got 1'),
        ],
        ids=["string_m", "float_k", "bool_n", "one_letter_code"],
    )
    def test_integer_fields_checked_at_the_boundary(self, spec_file, capsys, spec, message):
        assert run(["pure", spec_file(spec)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("second", [[0, 1], [1, 0]], ids=["two_states", "one_state_twice"])
    @pytest.mark.parametrize("mode", [[], ["--mode", "float"]], ids=["exact", "float"])
    def test_weights_that_are_not_real_are_refused(self, spec_file, capsys, second, mode):
        # they sum to 1; the mixture of two states used to fail the positivity gate, of one state twice to pass
        spec = {"family": "mixture", "components": [{"family": "cuntz", "z": [1, 0]}, {"family": "cuntz", "z": second}],
                "weights": [["1/2", "1/10"], ["1/2", "-1/10"]]}
        assert run(["pure", spec_file(spec), *mode]) == 1
        assert capsys.readouterr() == ("", "error: state spec (mixture): weights must be positive and sum to 1\n")

    @pytest.mark.parametrize(
        "name, data",
        [
            ("bad_utf8", b'\xff\xfe{"family": "cuntz"}'),
            ("long_integer", ('{"family": "cuntz", "z": [' + "1" * 5000 + ", 0]}").encode()),
            ("nan_scalar", b'{"family": "cuntz", "z": [NaN, 0]}'),
        ],
    )
    def test_unreadable_numbers_and_bytes(self, tmp_path, capsys, name, data):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        assert run(["pure", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, spec, option, least, message",
        [
            ("moments", CUNTZ35, ["--level", "-3"], ["--level", "0"], "the word length must be at least 0, got -3"),
            ("kappa", EVEN_MIXTURE, ["--search-certificates", "--search-depth", "-2"],
             ["--search-certificates", "--search-depth", "1"], "the search depth must be at least 1, got -2"),
        ],
        ids=["negative_level", "negative_search_depth"],
    )
    def test_a_bound_below_its_least_value_is_refused(self, spec_file, capsys, command, spec, option, least,
                                                      message):
        # a word length below 0 listed no moments, a search depth below 1 searched no code
        path = spec_file(spec)
        assert run([command, path, *option, "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert run([command, path, *least, "--format", "json"]) == 0

    @pytest.mark.parametrize("level", ["0", "-3"])
    @pytest.mark.parametrize("command", ["cdim", "kappa", "equiv", "fcs", "rep", "report"])
    def test_a_level_cap_below_one_is_refused(self, spec_file, capsys, command, level):
        # a Cuntz parameter decides kappa and equiv, and the grid's kappa_rep, with no Gram growth
        specs = {"equiv": [CUNTZ35, CUNTZ35], "rep": [GRID_REP]}.get(command, [CUNTZ35])
        assert run([command, *map(spec_file, specs), "--max-level", level]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: the level cap must be at least 1, got {level}\n")

    @pytest.mark.parametrize("n, deepest", [(2, 13), (3, 8)])
    def test_a_search_past_the_table_limit_is_refused(self, spec_file, capsys, n, deepest):
        # the uniform codes up to depth 13 over 2 letters hold 2^14 - 2 words, up to depth 8
        # over 3 letters 9840, and one level more exceeds 2^14; the search finds u = s_1 first
        base = {"family": "cuntz", "z": [1] + [0] * (n - 1)}
        path = spec_file({**TRIVIAL_SANDWICH, "base": base, "terms": [[1, {**TRIVIAL_SANDWICH["terms"][0][1], "n": n}]]})
        for depth in (deepest + 1, 40):
            assert run(["kappa", path, "--search-certificates", "--search-depth", str(depth)]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: the uniform codes of a search to depth {depth} "
                                                        f"over {n} letters exceed 16384 words\n")
        assert run(["kappa", path, "--search-certificates", "--search-depth", str(deepest)]) == 0
        assert capsys.readouterr().out.startswith("κ=1 (Minimal")

    def test_a_state_over_26_letters_is_held_to_no_search_bound(self, spec_file, capsys):
        # the uniform codes of the default depth 3 over 26 letters hold 18278 > 2^14 words,
        # but no search lists them: kappa_rep reads the grid's facts
        assert run(["rep", spec_file({**GRID_REP, "n": 26})]) == 0
        assert capsys.readouterr().out.startswith("κ=infinite (ProperlyInfinite, proved)\n")

    def test_inexact_float_gated(self, spec_file, capsys):
        path = spec_file({"family": "cuntz", "z": [0.6, 0.8]})
        assert run(["cdim", path]) == 1
        assert "--mode float" in capsys.readouterr().err
        assert run(["cdim", path, "--mode", "float"]) == 0

    @pytest.mark.parametrize("depth", [400, 3000])
    def test_a_spec_nested_too_deeply_is_refused(self, tmp_path, capsys, depth):
        # 400 deep overruns the spec readers, 3000 deep the JSON decoder itself
        path = tmp_path / "deep.json"
        path.write_text(_nested_gauge(depth))
        for command in ("cdim", "report", "fcs", "kappa", "moments"):
            assert run([command, str(path)]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {path}: the spec nests too deeply\n")

    def test_a_spec_nested_100_deep_keeps_its_answer(self, tmp_path, capsys):
        # an even number of swaps gives the Cuntz state back
        path = tmp_path / "deep.json"
        path.write_text(_nested_gauge(100))
        assert run(["kappa", str(path)]) == 0
        assert capsys.readouterr().out == ("κ=1 (EquivalentToCuntz; z = (3/5, 4/5); provenance family); "
                                           "cdim 1 (stabilized)\n")
        for command in ("cdim", "report", "fcs", "moments"):
            assert run([command, str(path)]) == 0
            assert capsys.readouterr().out

    def test_a_spec_nested_100_deep_names_the_twist_once_in_its_purity_reason(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(_nested_gauge(100))
        assert run(["pure", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "verdict": "Pure",
            "reason": "a Cuntz state is a vector state of an irreducible representation; "
                      "composition with a gauge automorphism preserves purity"}


def test_version_is_the_project_version():
    meta = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
    assert cuntzlab.__version__ == meta["project"]["version"] == "0.1.0"


class TestSeedPlumbing:
    def test_selftest_seed_reaches_run_all(self, monkeypatch, capsys):
        import cuntzlab.selftest as selftest

        seeds = []
        monkeypatch.setattr(selftest, "run_all", lambda seed: seeds.append(seed) or [])
        monkeypatch.delenv("CUNTZLAB_SEED", raising=False)
        assert run(["selftest", "--seed", "7"]) == 0
        assert run(["selftest"]) == 0
        monkeypatch.setenv("CUNTZLAB_SEED", "7")
        assert run(["selftest"]) == 0
        assert seeds == [7, 20260814, 20260814]
        assert capsys.readouterr().out.splitlines()[-1] == "0 passed, 0 failed (seed 20260814)"


class TestResultRendering:
    """Each result has one renderer, which returns its markdown text and its
    JSON fields together; the value and certificate renderers are tested with
    the rest of the result JSON in test_specio."""

    def test_kappa_and_cdim(self):
        assert cli._kappa(KappaResult(inf, ProperlyInfinite(a=None, status="proved"))) == (
            "κ=infinite (ProperlyInfinite, proved)",
            {"value": "infinite", "certificate": "properly_infinite", "status": "proved"})
        assert cli._kappa(KappaResult(None, LowerBoundOnly(1, 2, level=2))) == (
            "κ=unresolved (LowerBoundOnly in [1, 2] at level 2)",
            {"value": None, "certificate": "lower_bound_only", "interval": [1, 2], "note": "", "level": 2})
        assert cli._cdim(CdimResult(2, "stabilized", (1, 2, 2), ((), (1,)))) == (
            "cdim=2 (stabilized); levels 1, 2, 2", {"value": 2, "status": "stabilized", "levels": [1, 2, 2]})
        assert cli._cdim(CdimResult(3, "lower_bound", (1, 3), ())) == (
            "cdim>=3 (lower bound at level 1); levels 1, 3", {"value": 3, "status": "lower_bound", "levels": [1, 3]})


class TestExitCodes:
    """run prints what a command returns and returns its exit code: the same
    code in md and in json, 3 under --strict on an unresolved answer, and on
    an error one line on stderr and nothing on stdout."""

    @pytest.mark.parametrize(
        "command, specs, options, code",
        [
            ("cdim", [CUNTZ35], ["--strict"], 0),
            ("cdim", [SERIES], ["--max-level", "2", "--strict"], 3),
            ("kappa", [WORD12], ["--strict"], 0),
            ("kappa", [SANDWICH], ["--strict"], 3),
            ("kappa", [SANDWICH], [], 0),
            ("equiv", [WORD12, WORD21], ["--strict"], 0),
            ("equiv", [WORD12, EVEN_MIXTURE], ["--strict"], 3),
            ("pure", [CUNTZ35], ["--strict"], 0),
            ("pure", [WORD12], ["--strict"], 3),
            ("fcs", [CUNTZ35], ["--strict"], 0),
            ("fcs", [SERIES], ["--max-level", "2", "--strict"], 3),
            ("rep", [GRID_REP], ["--strict"], 0),
            ("report", [CUNTZ35], ["--strict"], 0),
            ("report", [CUNTZ35, SANDWICH], ["--strict"], 3),
            ("moments", [CUNTZ35], [], 0),
            ("moments", [GRID_REP], [], 1),
            ("rep", [CUNTZ35], ["--strict"], 1),
            ("cdim", [{"family": "cuntz", "z": [1, 1]}], ["--strict"], 1),
            ("report", [CUNTZ35, {"family": "nope"}], [], 1),
        ],
    )
    def test_md_and_json_share_the_exit_code(self, spec_file, capsys, command, specs, options, code):
        argv = [command, *map(spec_file, specs), *options]
        assert run(argv) == code
        md = capsys.readouterr()
        assert run([*argv, "--format", "json"]) == code
        js = capsys.readouterr()
        assert md.err == js.err
        if code == 1:
            assert md.out == js.out == ""
            assert md.err.startswith("error: ") and md.err.count("\n") == 1
        else:
            assert md.err == "" and md.out.endswith("\n") and not md.out.startswith("{")
            assert json.loads(js.out)

    def test_an_option_the_command_does_not_take_exits_two(self, spec_file, capsys):
        for fmt in ([], ["--format", "json"]):
            with pytest.raises(SystemExit) as e:
                run(["moments", spec_file(CUNTZ35), "--strict", *fmt])
            assert e.value.code == 2
            assert capsys.readouterr().out == ""

    def test_a_failed_criterion_exits_one(self, monkeypatch, capsys):
        import cuntzlab.selftest as selftest

        failed = selftest.CriterionResult("gate", False, "off by one", 0.5)
        monkeypatch.setattr(selftest, "run_all", lambda seed: [failed])
        assert run(["selftest", "--seed", "5"]) == 1
        assert capsys.readouterr().out.splitlines() == ["[ 1/1] FAIL gate (0.50s) - off by one",
                                                        "0 passed, 1 failed (seed 5)"]
        assert run(["selftest", "--seed", "5", "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "ok": False, "seed": 5, "results": [{"name": "gate", "ok": False, "detail": "off by one", "seconds": 0.5}]}


# the options of each command, 33 settable values in all; every other option exits 2
STATE_OPTIONS = {"--mode", "--max-level", "--format", "--strict"}
OPTIONS = {
    "cdim": STATE_OPTIONS,
    "kappa": STATE_OPTIONS | {"--search-certificates", "--search-depth"},
    "equiv": STATE_OPTIONS,
    "pure": {"--mode", "--format", "--strict"},
    "moments": {"--mode", "--format", "--level"},
    "fcs": STATE_OPTIONS,
    "rep": {"--max-level", "--format", "--strict"},
    "selftest": {"--format", "--seed"},
    "report": STATE_OPTIONS,
}
# one option per command that the shared option set used to accept and ignore
IGNORED = {
    "cdim": ["--seed", "7"],
    "kappa": ["--cutoff", "20"],
    "equiv": ["--level", "1"],
    "pure": ["--max-level", "3"],
    "moments": ["--strict"],
    "fcs": ["--seed", "7"],
    "rep": ["--mode", "float"],
    "selftest": ["--max-level", "3"],
    "report": ["--cutoff", "20"],
}
POSITIONAL = {"equiv": ["a.json", "b.json"], "selftest": []}


def _subparsers():
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_each_command_takes_only_the_options_it_reads(command, capsys):
    sp = _subparsers()[command]
    assert {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"} == OPTIONS[command]
    with pytest.raises(SystemExit) as exc:
        run([command, *POSITIONAL.get(command, ["a.json"]), *IGNORED[command]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(IGNORED[command])}" in capsys.readouterr().err


# runs in a fresh interpreter: counts the argument parsers built by the
# import and by each of two runs of the spec in argv[1]
_PARSER_COUNT = """
import argparse, contextlib, io, sys
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import cuntzlab.cli as cli
counts = [len(built)]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["cdim", sys.argv[1]]) == 0
    counts.append(len(built))
print(*counts)
"""


def test_parser_is_built_once_on_the_first_run(spec_file):
    proc = _run_python(_PARSER_COUNT, spec_file(CUNTZ35))
    assert proc.returncode == 0, proc.stderr
    imported, first, second = map(int, proc.stdout.split())
    # the program parser and one parser per command, built by the first run only
    assert (imported, first, second) == (0, 1 + len(OPTIONS), 1 + len(OPTIONS))


ELEMENT = {"n": 2, "terms": [{"J": [2], "K": [], "re": 1, "im": 0}]}
CUNTZ10 = {"family": "cuntz", "z": [1, 0]}
SUB_CUNTZ_M40 = {"family": "sub_cuntz", "n": 2, "m": 40, "z": [1, 0]}
# a sandwich is the whole sum: a truncated one with a tail bound is no state
TAIL_BOUND_UNKNOWN = 'state spec (sandwich): unknown key "tail_bound" (known: base, terms, equivalent_to_cuntz)'


class TestMalformedSpecs:
    """Each spec used to be ignored in part, end in a traceback, or hang."""

    @pytest.mark.parametrize(
        "command, spec, message",
        [
            ("report", {"family": "cuntz", "z": [[1, 0], [0, 0]], "tyop": 1},
             'state spec (cuntz): unknown key "tyop" (known: n, z)'),
            ("report", {"family": "cuntz", "n": 3, "z": [1, 0]},
             'state spec (cuntz): "n" must equal the length of "z" (2), got 3'),
            ("rep", {"kind": "lazy", "preset": "thue_morse", "n": 3},
             "representation spec (lazy): \"n\" must be 2 for the binary preset 'thue_morse', got 3"),
            ("report", {"family": "sandwich", "base": CUNTZ10, "terms": [[1, ELEMENT]], "tail_bound": "x"},
             TAIL_BOUND_UNKNOWN),
            ("report", {"family": "sandwich", "base": CUNTZ10, "terms": [[1, {**ELEMENT, "n": "2"}]]},
             "state spec (sandwich): \"terms[0][1].n\" must be an integer >= 2, got '2'"),
            ("report", {"family": "sandwich", "base": CUNTZ10, "terms": [[1, {"n": 2, "terms": 5}]]},
             'state spec (sandwich): "terms[0][1].terms" must be an array, got 5'),
            ("report", {"family": "prefix_code", "n": 2, "code": 5, "z": [1]},
             'state spec (prefix_code): "code" must be an array, got 5'),
            ("report", {"family": "induced_product", "n": 2, "pre": 3, "rep": [[1, 0]]},
             'state spec (induced_product): "pre" must be an array, got 3'),
            ("report", {"family": "gauge", "base": CUNTZ10, "g": 7},
             'state spec (gauge): "g" must be an array, got 7'),
            ("report", {"family": "mixture", "components": 3, "weights": [1]},
             'state spec (mixture): "components" must be an array, got 3'),
            ("report", {"family": "vector", "rep": {"kind": "lazy", "preset": "thue_morse", "horizon": 64},
                        "key": [[], "a"]},
             "state spec (vector): \"key[1]\" must be an integer >= 0, got 'a'"),
            ("report", SUB_CUNTZ_M40,
             "state spec (sub_cuntz): expected 2^40 coefficients in lexicographic order, got 2"),
            ("report", {"family": ["cuntz"], "z": [1, 0]}, "state spec: unknown family ['cuntz']"),
            ("report", {"family": "sandwich", "base": CUNTZ10, "terms": [[1, ELEMENT]], "tail_bound": -1},
             TAIL_BOUND_UNKNOWN),
            ("report", {"family": "sandwich", "base": CUNTZ10, "terms": [[1, ELEMENT]], "equivalent_to_cuntz": [1]},
             "state spec (sandwich): equivalent_to_cuntz needs 2 entries, got 1"),
            ("report", {"family": "vector", "rep": {"kind": "shift", "word": {"per": [1]}}, "key": {"per": [2, 2]}},
             "state spec (vector): shift key (2)^inf is not in the tail class of (1)^inf"),
            ("report", {"family": "gauge", "base": CUNTZ10, "g": [[1, 0], [0]]},
             "state spec (gauge): expected a 2 x 2 matrix, got rows of lengths 2, 1"),
            ("report", {"family": "gauge", "base": CUNTZ10, "g": []},
             "state spec (gauge): expected a 2 x 2 matrix, got no rows"),
        ],
        ids=["typo", "cuntz_n", "lazy_n", "tail_bound", "element_n", "element_terms", "code", "pre", "g",
             "components", "lazy_key", "sub_cuntz_m40", "family_list", "negative_tail_bound",
             "declared_parameter_length", "shift_key_outside_the_tail_class", "g_ragged_rows", "g_no_rows"],
    )
    def test_one_error_line(self, spec_file, capsys, command, spec, message):
        assert run([command, spec_file(spec)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_cuntz_n_equal_to_the_length_is_accepted(self, spec_file, capsys):
        assert run(["cdim", spec_file({"family": "cuntz", "n": 2, "z": [["3/5", 0], ["4/5", 0]]})]) == 0
        assert capsys.readouterr().out.startswith("cdim=1 (stabilized)")

    def test_an_empty_prefix_code_is_refused(self, spec_file):
        # it used to end in a traceback from max() over its empty word list
        proc = _run_python(None, "report", spec_file({"family": "prefix_code", "n": 2, "code": [], "z": []}))
        assert proc.returncode == 1
        assert proc.stderr == "error: state spec (prefix_code): a prefix code needs at least one word\n"

    def test_oversized_sub_cuntz_exits_at_once(self, spec_file):
        proc = _run_python(None, "report", spec_file(SUB_CUNTZ_M40), timeout=5)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("spec", [
        {"family": "geometric_progression", "n": 2, "k": 30, "z": [1] + [0] * 30},
        {"family": "prefix_code", "n": 2, "code": [[1] * 30], "z": [1]},
    ], ids=["progression_k30", "one_word_of_30_letters"])
    def test_a_long_code_word_exits_before_listing_its_table(self, spec_file, spec):
        # a short spec whose fixed-point table would list every word up to length 30
        proc = _run_python(None, "report", spec_file(spec), timeout=5)
        assert proc.returncode == 1
        assert proc.stderr == (f"error: state spec ({spec['family']}): the fixed-point table of the words up to "
                               "length 30 over 2 letters exceeds 16384 words\n")


class TestRepComputesKappaOnce:
    def test_one_kappa_rep_call_at_the_given_level(self, spec_file, capsys, monkeypatch):
        calls = []
        kappa_rep = cli.kappa_rep

        def counted(rep, L_max):
            calls.append(L_max)
            return kappa_rep(rep, L_max)

        monkeypatch.setattr(cli, "kappa_rep", counted)
        assert run(["rep", spec_file(GRID_REP), "--max-level", "3"]) == 0
        assert calls == [3]
        assert capsys.readouterr().out.splitlines()[1] == "endomorphism invariants: powers index 2, κ infinite"


GOLDEN_SPECS = Path(__file__).parent / "golden" / "specs"

# runs in a fresh interpreter: the argument lists come as JSON in argv[1]
_NUMPY_GUARD = """
import contextlib, io, json, sys
import cuntzlab.cli as cli
assert "numpy" not in sys.modules, "import cuntzlab.cli loaded numpy"
assert "dataclasses" not in sys.modules, "import cuntzlab.cli loaded dataclasses"
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    assert code == 0, (argv, code)
    assert "numpy" not in sys.modules, ("numpy loaded by", argv)
"""


def _fresh_run(commands):
    return _run_python(_NUMPY_GUARD, json.dumps(commands))


# a failing float gate computes numpy's estimate for its message
_PSD_FAILURE = """
import sys
from cuntzlab.linalg import hermitian_psd_check
assert "numpy" not in sys.modules, "import cuntzlab.linalg loaded numpy"
ok, estimate = hermitian_psd_check([[0.0, 1.0], [1.0, 0.0]])
assert not ok and abs(estimate + 1.0) < 1e-12, (ok, estimate)
assert "numpy" in sys.modules, "a failing float gate did not load numpy"
"""


def _golden_commands(mode):
    """report (one per alphabet, since a report compares its states
    pairwise) and fcs on every golden spec, and under --mode float moments
    too, each in json."""
    specs = sorted(str(p) for p in GOLDEN_SPECS.glob("*.json"))
    alphabets: dict[int, list] = {}
    for spec in specs:
        alphabets.setdefault(parse_spec(spec).n, []).append(spec)
    commands = [["report", *group] for group in alphabets.values()] + [["fcs", spec] for spec in specs]
    if mode == "float":
        commands += [["moments", spec] for spec in specs]
        commands = [[*argv, "--mode", "float"] for argv in commands]
    return [[*argv, "--format", "json"] for argv in commands]


class TestCommandsNeverLoadNumpy:
    """numpy is loaded only for the message of a failed positivity check."""

    def test_import_and_exact_report_and_fcs(self):
        proc = _fresh_run(_golden_commands("exact"))
        assert proc.returncode == 0, proc.stderr

    def test_float_report_fcs_and_moments_and_selftest(self):
        proc = _fresh_run([*_golden_commands("float"), ["selftest"]])
        assert proc.returncode == 0, proc.stderr

    def test_the_guard_sees_a_failing_float_gate_load_numpy(self):
        proc = _run_python(_PSD_FAILURE)
        assert proc.returncode == 0, proc.stderr

    def test_float_report_succeeds(self, capsys):
        assert run(["report", str(GOLDEN_SPECS / "sub_cuntz_twisted.json"), "--mode", "float"]) == 0
        assert "cdim=3" in capsys.readouterr().out
