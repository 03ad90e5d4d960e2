"""JSON spec parsing, the JSON shared with results, and the positivity gate."""

import json
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cuntzlab.cli as cli
from cuntzlab import (
    EquivalentToCuntz,
    GateFailed,
    IsometrySequence,
    LowerBoundOnly,
    Minimal,
    ProperlyInfinite,
    QQi,
    SchemaError,
    ShiftPeriod,
    gen,
    monomial,
    parse_spec,
    rep_from_spec,
    state_from_spec,
)
from cuntzlab.shiftrep import GridRepresentation, ShiftRepresentation
from cuntzlab.specio import (
    dump_json,
    element_from_json,
    element_to_json,
    epword_from_json,
    scalar_from_json,
    scalar_to_json,
    word_from_json,
)

from cuntzlab.scalars import format_float

from conftest import fr, q

GOLDEN_SPECS = Path(__file__).parent / "golden" / "specs"
# the parts of a rendered scalar [re, im]
_NUMBER = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
# floats whose renderings take each form: a signed zero, a subnormal, an
# exponent, a long integral part and a small fraction
_EDGE_FLOATS = [-0.0, 5e-324, 1e16, 123456789012.0, 1e-7]
_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS))
# the [re, im] pair of a float scalar, the row a float matrix renders, and
# such pairs mixed with other values in one list
_FLOAT_PAIR = st.tuples(_FLOAT, _FLOAT).map(list)
_FLOAT_ROW = st.lists(_FLOAT_PAIR, min_size=1, max_size=6)


class TestScalarParsing:
    def test_bare_integers_and_fraction_strings(self):
        assert scalar_from_json(1, where="t") == QQi(1, 0)
        assert scalar_from_json("3/5", where="t") == QQi(fr(3, 5), 0)

    def test_pairs(self):
        assert scalar_from_json(["3/5", "4/5"], where="t") == QQi(fr(3, 5), fr(4, 5))
        assert scalar_from_json([0, 1], where="t") == QQi(0, 1)

    def test_integral_floats_accepted_exactly(self):
        assert scalar_from_json(1.0, where="t") == QQi(1, 0)

    def test_inexact_float_needs_the_flag(self):
        with pytest.raises(SchemaError):
            scalar_from_json(0.6, where="z[0]")
        assert scalar_from_json(0.6, "float", "z[0]") == 0.6

    def test_auto_mode_points_at_the_flag(self):
        with pytest.raises(SchemaError) as e:
            scalar_from_json(0.6, "auto", "t")
        assert "--mode float" in str(e.value)

    def test_garbage_rejected(self):
        with pytest.raises(SchemaError):
            scalar_from_json("3/5/7", where="t")
        with pytest.raises(SchemaError):
            scalar_from_json({"re": 1}, where="t")


class TestScalarSerialization:
    def test_round_trip_exact(self):
        for z in [QQi(1, 0), QQi(fr(3, 5), fr(-4, 5)), QQi(0, 1), fr(1, 3), 7]:
            out = scalar_to_json(z)
            back = scalar_from_json(out, where="t")
            assert back == QQi(z) if not isinstance(z, QQi) else back == z

    def test_integers_stay_integers(self):
        assert scalar_to_json(QQi(2, 0)) == [2, 0]
        assert scalar_to_json(QQi(fr(1, 2), 0)) == ["1/2", 0]

    @given(st.one_of(st.builds(complex, _FLOAT, _FLOAT), _FLOAT))
    @example(complex(-0.0, -0.0))
    @example(complex(5e-324, -1e-7))
    @example(-0.0)
    @example(123456789012.0)
    def test_an_inexact_scalar_renders_as_its_parts_format_float_reads(self, x):
        want = [float(format_float(complex(x).real)), float(format_float(complex(x).imag))]
        got = scalar_to_json(x)
        assert type(got) is list and all(type(p) is float for p in got)
        assert repr(got) == repr(want)

    def test_floats_round_trip_through_float_mode(self):
        out = scalar_to_json(0.6 + 0.25j)
        back = scalar_from_json(out, "float", "t")
        assert abs(back - (0.6 + 0.25j)) < 1e-9


class TestWordSerialization:
    def test_word_from_json(self):
        assert word_from_json([1, 2, 1], "t") == (1, 2, 1)
        assert word_from_json([], "t") == ()
        with pytest.raises(SchemaError):
            word_from_json("12", "t")

    def test_epword_round_trip(self):
        w = epword_from_json({"pre": [1], "per": [1, 2]}, 2, "t")
        assert (w.pre, w.per) == ((1,), (1, 2))

    def test_epword_canonicalizes(self):
        w = epword_from_json({"pre": [1, 2], "per": [2]}, 2, "t")
        assert (w.pre, w.per) == ((1,), (2,))


class TestElementSerialization:
    def test_round_trip(self):
        x = monomial(2, (1, 2), (2, 1), QQi(fr(1, 2), fr(1, 3)))
        out = element_to_json(x)
        back = element_from_json(out, where="t")
        assert back == x

    def test_terms_sorted_canonically(self):
        x = monomial(2, (2,), ()) + monomial(2, (1,), ())
        out = element_to_json(x)
        assert [t["J"] for t in out["terms"]] == [[1], [2]]


class TestStateSpecs:
    CASES = [
        ({"family": "cuntz", "z": [["3/5", 0], ["4/5", 0]]}, "cuntz"),
        ({"family": "sub_cuntz", "m": 2, "n": 2, "z": [0, 1, 0, 0]}, "sub_cuntz"),
        (
            {"family": "geometric_progression", "k": 2, "n": 2, "z": ["3/5", 0, "4/5"]},
            "geometric_progression",
        ),
        ({"family": "prefix_code", "n": 2, "code": [[1, 2]], "z": [1]}, "prefix_code"),
        (
            {"family": "induced_product", "n": 2, "rep": [[["3/5", 0], ["4/5", 0]], [0, 1]]},
            "induced_product",
        ),
        ({"family": "shift", "n": 2, "word": {"pre": [1], "per": [1, 2]}}, "shift"),
        (
            {"family": "vector", "rep": {"kind": "grid", "n": 2}, "key": [1, 0]},
            "grid",
        ),
        (
            {
                "family": "sandwich",
                "base": {"family": "cuntz", "z": [1, 0]},
                "terms": [[1, {"n": 2, "terms": [{"J": [2], "K": [], "re": 1, "im": 0}]}]],
            },
            "sandwich",
        ),
        ({"family": "sandwich_series"}, "sandwich_series"),
        (
            {
                "family": "gauge",
                "base": {"family": "cuntz", "z": [1, 0]},
                "g": [[0, 1], [1, 0]],
            },
            "gauge",
        ),
        (
            {
                "family": "mixture",
                "components": [
                    {"family": "cuntz", "z": [1, 0]},
                    {"family": "cuntz", "z": [0, 1]},
                ],
                "weights": ["1/2", "1/2"],
            },
            "mixture",
        ),
    ]

    @pytest.mark.parametrize("obj,family", CASES, ids=[c[0]["family"] for c in CASES])
    def test_families_construct(self, obj, family):
        w = state_from_spec(obj)
        assert w.family == family
        assert w.moment((), ()) == 1

    def test_construction_errors_become_schema_errors(self):
        with pytest.raises(SchemaError) as e:
            state_from_spec({"family": "cuntz", "z": [1, 1]})
        assert "squared norm 2" in str(e.value)

    def test_missing_field(self):
        with pytest.raises(SchemaError) as e:
            state_from_spec({"family": "cuntz"})
        assert '"z"' in str(e.value)

    def test_unknown_family(self):
        with pytest.raises(SchemaError):
            state_from_spec({"family": "nope"})

    def test_user_equivalence_on_sandwich(self):
        w = state_from_spec(
            {
                "family": "sandwich",
                "base": {"family": "cuntz", "z": [1, 0]},
                "terms": [[1, {"n": 2, "terms": [{"J": [2], "K": [], "re": 1, "im": 0}]}]],
                "equivalent_to_cuntz": [1, 0],
            }
        )
        assert w.facts.cuntz == ((1, 0), "user")


class TestRepSpecs:
    def test_grid(self):
        rep = rep_from_spec({"kind": "grid", "n": 2})
        assert isinstance(rep, GridRepresentation)

    def test_shift(self):
        rep = rep_from_spec({"kind": "shift", "word": {"pre": [], "per": [1, 2]}, "n": 2})
        assert isinstance(rep, ShiftRepresentation)

    def test_shift_alphabet_inferred(self):
        rep = rep_from_spec({"kind": "shift", "word": {"pre": [], "per": [1, 2]}})
        assert rep.word.n == 2

    def test_lazy(self):
        rep = rep_from_spec({"kind": "lazy", "preset": "thue_morse", "n": 2, "horizon": 64})
        assert isinstance(rep, ShiftRepresentation)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            rep_from_spec({"kind": "torus"})


class TestParseSpec:
    def test_state_file(self, spec_file):
        w = parse_spec(spec_file({"family": "cuntz", "z": [["3/5", 0], ["4/5", 0]]}))
        assert w.family == "cuntz"

    def test_rep_file(self, spec_file):
        rep = parse_spec(spec_file({"kind": "grid", "n": 2}))
        assert isinstance(rep, GridRepresentation)

    def test_missing_file(self):
        with pytest.raises(SchemaError) as e:
            parse_spec("/nonexistent/spec.json")
        assert "cannot read" in str(e.value)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(SchemaError) as e:
            parse_spec(str(p))
        assert "not valid JSON" in str(e.value)

    def test_non_object_top_level(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            parse_spec(str(p))

    def test_bad_norm_surfaces_cleanly(self, spec_file):
        with pytest.raises(SchemaError) as e:
            parse_spec(spec_file({"family": "cuntz", "z": [1, 1]}))
        assert "state spec (cuntz)" in str(e.value)

    def test_positivity_gate_fires_on_rigged_functional(self, spec_file, monkeypatch):
        # every built-in constructor is positive by construction, so rig one:
        # a fake functional whose level-2 moment matrix has a negative block
        import cuntzlab.specio as specio
        from cuntzlab.moments import MomentFunctional

        def rigged(J, K):
            if J == K and len(J) == 1:
                return -1  # diagonal Gram entry < 0
            if J == K:
                return 1
            return 0

        # a raw functional: the gate reads its word model, whose entries are its moments
        monkeypatch.setattr(specio, "state_from_spec", lambda *a, **k: MomentFunctional(2, "cuntz", rigged))
        with pytest.raises(GateFailed) as e:
            parse_spec(spec_file({"family": "cuntz", "z": [1, 0]}))
        assert str(e.value).endswith(
            ": the level-2 moment matrix is not positive semidefinite (smallest eigenvalue estimate -1)"
        )

    @pytest.mark.parametrize("defect, one", [("coupling", 1), ("coupling", 1.0), ("diagonal", 1.0)],
                             ids=["coupling-exact", "coupling-float", "diagonal-float"])
    def test_the_gate_refuses_rigged_functionals_in_both_modes(self, spec_file, monkeypatch, defect, one):
        # a unit diagonal with one coupling omega(s_1 s_2*) = omega(s_2 s_1*) = 2
        # has the eigenvalue 1 - 2 = -1; so has a diagonal entry -1 (the exact
        # case of that is the test above).  The exact
        # check reads the entries on and above the diagonal, the float estimate
        # the Hermitian part, and the gate's Gram matrix fills the entries
        # below the diagonal from those above
        import cuntzlab.specio as specio
        from cuntzlab.moments import MomentFunctional

        def rigged(J, K):
            if defect == "coupling" and {J, K} == {(1,), (2,)}:
                return 2 * one
            if J == K:
                return -one if defect == "diagonal" and len(J) == 1 else one
            return 0 * one

        monkeypatch.setattr(specio, "state_from_spec", lambda *a, **k: MomentFunctional(2, "cuntz", rigged))
        with pytest.raises(GateFailed) as e:
            parse_spec(spec_file({"family": "cuntz", "z": [1, 0]}))
        assert str(e.value).endswith(
            ": the level-2 moment matrix is not positive semidefinite (smallest eigenvalue estimate -1)"
        )

    @pytest.fixture
    def moment_calls(self, monkeypatch):
        """The states whose checked ``moment()`` is called.  ``moment_of_element``
        reads ``model.moment`` (pinned in ``tests/test_moments.py``), so the
        certificate check that calls it reads the model."""
        from cuntzlab.moments import MomentFunctional

        calls = []
        read = MomentFunctional.moment

        def spy(self, *args):
            calls.append(self)
            return read(self, *args)

        monkeypatch.setattr(MomentFunctional, "moment", spy)
        return calls

    def test_the_gate_of_a_modelled_state_reads_the_model(self, spec_file, no_word_model, moment_calls):
        # the level-2 Gram matrix is read off the n^0 + n + n^2 model vectors
        parse_spec(spec_file({"family": "vector", "rep": {"kind": "grid", "n": 3}, "key": [2, 0]}))
        assert moment_calls == []

    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN_SPECS.glob("*.json")))
    def test_every_invariant_of_a_modelled_state_reads_the_model(self, name, monkeypatch, capsys,
                                                                 no_word_model, moment_calls):
        # the Gram growth, the certificate checks and searches, the fcs
        # matrices and round trips all read the state's model
        import cuntzlab.cli as cli
        from cuntzlab import cdim, extract_fcs, kappa

        path = str(GOLDEN_SPECS / f"{name}.json")
        omega = parse_spec(path)
        cdim(omega)
        kappa(omega, search_certificates=True)
        extract_fcs(omega)
        assert moment_calls == []
        assert cli.run(["report", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)
        assert moment_calls == []


class TestResultSerialization:
    """The JSON of results, written by the renderers in cli.py with the
    formats they share with specs, and dump_json."""

    def test_values(self):
        assert cli._value_json(2) == 2
        assert cli._value_json(inf) == "infinite"
        assert cli._value_json(None) is None
        assert cli._value_json(None, "unresolved") == "unresolved"

    def test_certificates(self):
        u = monomial(2, (1,), (), q(fr(3, 5))) + monomial(2, (2,), (), q(fr(4, 5)))
        sequence = IsometrySequence(lambda i: gen(2, 1), "evidence", "a_i = s_1")
        cases = [
            (Minimal(u=u), "Minimal; u = (3/5) s[1] + (4/5) s[2]",
             {"certificate": "minimal", "u": {"n": 2, "terms": [{"J": [1], "K": [], "re": "3/5", "im": 0},
                                                                {"J": [2], "K": [], "re": "4/5", "im": 0}]}}),
            (ProperlyInfinite(a=None, cutoff=None, status="proved"), "ProperlyInfinite, proved",
             {"certificate": "properly_infinite", "status": "proved"}),
            (ProperlyInfinite(a=sequence, cutoff=12, status="evidence"), "ProperlyInfinite, evidence to cutoff 12",
             {"certificate": "properly_infinite", "status": "evidence", "cutoff": 12, "sequence": "a_i = s_1"}),
            (ShiftPeriod(d=3), "ShiftPeriod d=3", {"certificate": "shift_period", "d": 3}),
            (EquivalentToCuntz(z=(q(fr(3, 5)), q(0, fr(4, 5))), provenance="user"),
             "EquivalentToCuntz; z = (3/5, 4/5i); provenance user",
             {"certificate": "equivalent_to_cuntz", "z": [["3/5", 0], [0, "4/5"]], "provenance": "user"}),
            (LowerBoundOnly(1, 2, level=2, note="n"), "LowerBoundOnly in [1, 2] at level 2; n",
             {"certificate": "lower_bound_only", "interval": [1, 2], "note": "n", "level": 2}),
            (LowerBoundOnly(1), "LowerBoundOnly in [1, infinite]",
             {"certificate": "lower_bound_only", "interval": [1, "infinite"], "note": ""}),
        ]
        for cert, text, doc in cases:
            out = cli._certificate(cert)
            assert out == (text, doc)
            assert list(out[1]) == list(doc), cert  # the JSON keys keep their order, the kind first

    @pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
    def test_dump_refuses_a_key_that_is_not_a_string(self, key):
        # json.dumps would convert the first four; no rendered document has such a key
        with pytest.raises(TypeError):
            dump_json({"a": {key: 1}})

    def test_dump_preserves_order_and_rejects_nan(self):
        s = dump_json({"b": 1, "a": [2]})
        assert json.loads(s) == {"b": 1, "a": [2]}
        assert s.index('"b"') < s.index('"a"')  # insertion order kept
        with pytest.raises(ValueError):
            dump_json({"x": float("nan")})

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
    def test_dump_rejects_every_out_of_range_float(self, value):
        for doc in (value, [1, value], {"a": {"b": value}}):
            with pytest.raises(ValueError):
                dump_json(doc)

    @settings(max_examples=200)
    @given(st.recursive(
        st.one_of(st.text(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
                  st.none()),
        lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(st.text(), children, max_size=4),
                                   st.tuples(_NUMBER, _NUMBER).map(list), st.tuples(children, children).map(list),
                                   _FLOAT_ROW, st.lists(st.one_of(_FLOAT_PAIR, children), max_size=4)),
        max_leaves=20))
    @example([True, 1])
    @example([1, "a"])
    @example([[1, 2.5], [-0.0, 3]])
    @example([[x, -x] for x in _EDGE_FLOATS])
    @example({"metric": [[[1.0, 0.0], [0.5, -0.25]], [[0.5, 0.25], [1e16, 5e-324]]], "omega": [[1, 0], [0, 0]]})
    @example([[1.0, 2.0], [3.0, 4], [5.0, 6.0]])
    @example([[1.0, 2.0], [3.0, 4.0, 5.0]])
    @example([[1.0, 2.0], (3.0, 4.0)])
    def test_dump_renders_what_json_dumps_renders(self, doc):
        assert dump_json(doc) == json.dumps(doc, indent=2, allow_nan=False)

    def test_a_pair_of_numbers_is_one_emit(self):
        from cuntzlab.specio import _render_json

        # any other two-item list is five: open, item, separator, item, close
        # a list of float pairs is one emit too, and any other list one per item, a separator between
        for doc, emits in (([1, 2.5], 1), ([-0.0, 7], 1), ([True, 1], 5), ([1, "a"], 5), ([1, None], 5),
                           ([[1, 2], [3.0, 4]], 5), ([[1.0, 2.5], [-0.0, 1e16], [5e-324, 1e-7]], 1),
                           ([[1.0, 2.5], [3.0, 4]], 5)):
            out: list = []
            _render_json(doc, "\n", out.append)
            assert len(out) == emits, doc
            assert "".join(out) == json.dumps(doc, indent=2), doc
