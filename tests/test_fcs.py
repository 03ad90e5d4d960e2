"""Finitely correlated presentations extracted from stabilized states."""

import functools
import math
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuntzlab import (
    ValidationFailed,
    cdim,
    check_row_isometry,
    extract_fcs,
    gram_growth,
    make_cuntz,
    make_prefix_code_state,
    make_sub_cuntz,
    parse_spec,
    words_upto,
)
from cuntzlab.fcs import _solve, presentation
from cuntzlab.linalg import solve
from cuntzlab.moments import MomentFunctional, VectorModel
from cuntzlab.scalars import scalars_close
from cuntzlab.selftest import random_exact_unit

from conftest import fr, q

GOLDEN_SPECS = Path(__file__).parent / "golden" / "specs"


@cache
def golden_state(name: str, mode: str = "auto"):
    return parse_spec(str(GOLDEN_SPECS / f"{name}.json"), mode)


# the golden states whose Gram growth stabilizes at the default level cap
STABILIZED = [
    p.stem for p in sorted(GOLDEN_SPECS.glob("*.json")) if gram_growth(golden_state(p.stem)).stabilized
]

Z35 = [q(fr(3, 5)), q(fr(4, 5))]


class TestCuntzExtraction:
    def test_one_dimensional_presentation(self):
        f = extract_fcs(make_cuntz(Z35))
        assert f.d == 1
        assert f.A[0] == ((q(fr(3, 5)),),)
        assert f.A[1] == ((q(fr(4, 5)),),)
        assert f.omega == (1,)
        assert f.metric == ((q(1),),)

    def test_moments_reproduced(self):
        w = make_cuntz(Z35)
        f = extract_fcs(w)
        model = f.model()
        assert model.moment((1, 2), (2, 1)) == fr(144, 625)
        for J in words_upto(2, 3):
            for K in words_upto(2, 3):
                assert model.moment(J, K) == w.moment(J, K), (J, K)

    def test_row_isometry_holds(self):
        assert check_row_isometry(extract_fcs(make_cuntz(Z35)))

    def test_orbit_closure_is_trivial(self):
        w = make_cuntz(Z35)
        assert extract_fcs(w).d == cdim(w).value == 1


class TestWordStateExtraction:
    def test_two_dimensional_presentation(self):
        w = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        f = extract_fcs(w)
        assert f.d == 2
        # generator 1 maps the second basis state to the first;
        # generator 2 maps the first to the second
        assert f.A[0] == ((q(0), q(0)), (q(1), q(0)))
        assert f.A[1] == ((q(0), q(1)), (q(0), q(0)))
        assert f.metric == ((q(1), q(0)), (q(0), q(1)))

    def test_parity_moments_reproduced(self):
        w = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        f = extract_fcs(w)
        model = f.model()
        for J in words_upto(2, 4):
            for K in words_upto(2, 4):
                assert model.moment(J, K) == w.moment(J, K), (J, K)

    def test_row_isometry_and_orbit(self):
        w = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        f = extract_fcs(w)
        assert check_row_isometry(f)
        assert f.d == cdim(w).value == 2


class TestPresentation:
    @pytest.mark.parametrize("name", STABILIZED)
    def test_extract_fcs_returns_the_growth_presentation(self, name):
        omega = golden_state(name)
        assert presentation(omega, gram_growth(omega)) == extract_fcs(omega)

    def test_a_failed_row_relation_raises(self):
        # the Cuntz state's moments solved against the word state 12's growth
        word = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        with pytest.raises(ValidationFailed, match="row relation"):
            presentation(make_cuntz(Z35), gram_growth(word))


def _typed(x):
    """x with every scalar paired with its type, so that == compares types too."""
    if isinstance(x, (tuple, list)):
        return tuple(_typed(y) for y in x)
    return type(x), x


def _plain(model):
    """A plain function that only calls the model, as a profiler's wrapper does."""

    @functools.wraps(model)
    def moment(J, K):
        return model(J, K)

    return moment


class TestRawTwin:
    """A state built on a plain function that calls a state's model reads it
    through its word model; the state reads its own model, and both must
    give each moment the same value and type."""

    @pytest.mark.parametrize("mode", ["auto", "float"])
    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN_SPECS.glob("*.json")))
    def test_growth_and_presentation_match_the_state(self, name, mode):
        omega = parse_spec(str(GOLDEN_SPECS / f"{name}.json"), mode)
        twin = MomentFunctional(omega.n, "raw", _plain(omega.model), exact=omega.exact)
        assert twin.model is not omega.model and twin.model.vector((1,)) == {(1,): 1}
        for read in (gram_growth, extract_fcs):
            assert _typed(read(twin)) == _typed(read(omega)), read.__name__
        assert twin._memo and not omega._memo

    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN_SPECS.glob("*.json")))
    def test_a_model_source_is_the_state_model(self, name):
        omega = golden_state(name)
        assert isinstance(omega.model, VectorModel)
        assert MomentFunctional(omega.n, "twin", omega.model).model is omega.model


class TestUnstabilizedInput:
    def test_growing_state_reports_a_rank_bound(self):
        from cuntzlab import LowerBoundOnly, make_split_series_sandwich

        w = make_split_series_sandwich()
        out = extract_fcs(w, L_max=4)
        assert isinstance(out, LowerBoundOnly)
        assert out.low >= 5
        assert "still growing" in out.note


def _fcs_columns(omega):
    """The right-hand sides extract_fcs solves: one per letter and pivot."""
    pivots = gram_growth(omega).pivots
    for i in range(1, omega.n + 1):
        for p in pivots:
            yield [omega.model.moment(q, p + (i,)) for q in pivots]


def _dense_state(m: int, exact: bool):
    """A sub_cuntz state of order m over n = 2 with every coefficient nonzero."""
    rng = random.Random(m)
    if exact:
        return make_sub_cuntz(m, random_exact_unit(rng, 2**m), 2)
    z = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2**m)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in z))
    return make_sub_cuntz(m, [x / norm for x in z], 2)


class TestFactorSolve:
    """The growth's L D L* solve against a full elimination of its Gram."""

    def test_oracle_cases_are_not_trivial(self):
        assert len(STABILIZED) >= 20
        assert len(gram_growth(_dense_state(4, True)).pivots) == 9

    @pytest.mark.parametrize("name", [*STABILIZED, "dense_order_4"])
    def test_exact_columns_equal_full_solve(self, name):
        omega = _dense_state(4, True) if name == "dense_order_4" else golden_state(name)
        growth = gram_growth(omega)
        assert growth.stabilized
        for rhs in _fcs_columns(omega):
            assert _solve(growth, rhs) == solve(omega.model.gram(growth.pivots), rhs)

    @pytest.mark.parametrize("name", ["gauge_shift", "sub_cuntz_twisted", "mixture", "dense_order_5"])
    def test_float_columns_close_to_full_solve(self, name):
        omega = _dense_state(5, False) if name == "dense_order_5" else golden_state(name, "float")
        assert not omega.exact
        growth = gram_growth(omega)
        assert growth.stabilized
        for rhs in _fcs_columns(omega):
            got, want = _solve(growth, rhs), solve(omega.model.gram(growth.pivots), rhs)
            assert all(scalars_close(a, b, 1e-12) for a, b in zip(got, want)), (got, want)


@st.composite
def golden_moments(draw):
    name = draw(st.sampled_from(STABILIZED))
    n = golden_state(name).n
    word = st.lists(st.integers(1, n), max_size=3).map(tuple)
    return name, draw(word), draw(word)


@given(golden_moments())
def test_exact_presentation_round_trips_every_short_moment(case):
    name, J, K = case
    omega = golden_state(name)
    assert extract_fcs(omega).model().moment(J, K) == omega.moment(J, K)
