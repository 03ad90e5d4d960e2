"""Finitely correlated presentations extracted from stabilized states."""

import functools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path
from types import SimpleNamespace

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
    state_from_spec,
    words_upto,
)
from cuntzlab import fcs
from cuntzlab.fcs import _matrices, presentation
from cuntzlab.linalg import solve
from cuntzlab.moments import MomentFunctional, VectorModel
from cuntzlab.scalars import conj, scalars_close
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
        # the word state 12 with one dropped child's recorded coordinates
        # perturbed, the perturbed growth memoized as the state's own
        word = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        growth = gram_growth(word)
        k = next(k for k, (child, _) in enumerate(growth.children) if child not in growth.pivots)
        child, y = growth.children[k]
        children = list(growth.children)
        children[k] = (child, (y[0] + 1, *y[1:]))
        bad = growth._replace(children=tuple(children))
        key = next(key for key, g in word._growths.items() if g is growth)
        word._growths[key] = bad
        with pytest.raises(ValidationFailed, match="row relation"):
            presentation(word, bad)

    def test_a_growth_of_another_state_is_refused(self):
        word = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        growth = gram_growth(word)
        with pytest.raises(ValueError, match="not grown from this state"):
            presentation(make_cuntz(Z35), growth)
        # an equal growth that is not the one memoized on the state is refused too
        with pytest.raises(ValueError, match="not grown from this state"):
            presentation(word, growth._replace())


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
        assert _typed(gram_growth(twin).children) == _typed(gram_growth(omega).children)
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


def _dense_state(m: int, exact: bool):
    """A sub_cuntz state of order m over n = 2 with every coefficient nonzero."""
    rng = random.Random(m)
    if exact:
        return make_sub_cuntz(m, random_exact_unit(rng, 2**m), 2)
    z = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2**m)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in z))
    return make_sub_cuntz(m, [x / norm for x in z], 2)


def _columns(omega):
    """(child, presentation column, full-solve column) for every letter i and
    pivot p, child = p + (i,): column p of A_i beside the solution of the
    pivots' Gram against the child's correlation vector."""
    growth = gram_growth(omega)
    assert growth.stabilized
    pivots = growth.pivots
    F = presentation(omega, growth)
    gram = omega.model.gram(pivots)
    for A, i in zip(F.A, range(1, omega.n + 1)):
        for c, p in enumerate(pivots):
            child = p + (i,)
            rhs = [omega.model.moment(q, child) for q in pivots]
            yield child, [row[c] for row in A], solve(gram, rhs)


class _Spy:
    """A model that records each moment read through it and refuses gram."""

    def __init__(self, model):
        self.model = model
        self.read: list = []

    def moment(self, J, K):
        self.read.append((J, K))
        return self.model.moment(J, K)

    def gram(self, *args):
        raise AssertionError("model.gram was called")


class TestFactorSolve:
    """The presentation's columns, read off the growth, against a full
    elimination of the pivots' Gram."""

    def test_oracle_cases_are_not_trivial(self):
        assert len(STABILIZED) >= 20
        assert len(gram_growth(_dense_state(4, True)).pivots) == 9

    @pytest.mark.parametrize("name", [*STABILIZED, "dense_order_4"])
    def test_exact_columns_equal_full_solve(self, name):
        omega = _dense_state(4, True) if name == "dense_order_4" else golden_state(name)
        pivots = gram_growth(omega).pivots
        for child, got, want in _columns(omega):
            assert got == want, child
            if child in pivots:
                unit = [Fraction(q == child) for q in pivots]
                assert _typed(got) == _typed(unit), child

    @pytest.mark.parametrize("name", ["gauge_shift", "sub_cuntz_twisted", "mixture", "dense_order_5"])
    def test_float_columns_close_to_full_solve(self, name):
        omega = _dense_state(5, False) if name == "dense_order_5" else golden_state(name, "float")
        assert not omega.exact
        pivots = gram_growth(omega).pivots
        for child, got, want in _columns(omega):
            assert all(scalars_close(a, b, 1e-12) for a, b in zip(got, want)), (got, want)
            if child in pivots:
                unit = [float(q == child) for q in pivots]
                assert _typed(got) == _typed(unit), child

    # dense_order_4 drops its children only once all nine pivots are in; the
    # shift states drop some before the last pivot, so _matrices reads more
    @pytest.mark.parametrize("name", ["dense_order_4", "shift_112", "gauge_word_n3"])
    def test_matrices_read_only_what_the_growth_left(self, name):
        omega = _dense_state(4, True) if name == "dense_order_4" else golden_state(name)
        growth = gram_growth(omega)
        pivots, d = growth.pivots, len(growth.pivots)
        spy = _Spy(omega.model)
        A = _matrices(growth, SimpleNamespace(n=omega.n, exact=omega.exact, model=spy))
        dropped = {child: y for child, y in growth.children if child not in pivots}
        assert len(spy.read) == sum(d - len(y) for y in dropped.values())
        assert (name == "dense_order_4") == (not spy.read)
        scored = {(pivots[k], child) for child, y in growth.children for k in range(len(y))}
        assert not scored & set(spy.read)
        assert sorted(spy.read) == sorted((pivots[k], child) for child, y in dropped.items() for k in range(len(y), d))
        assert A == presentation(omega, growth).A


def _generator_model(F):
    """F.model() with every step and inner product summed by one generator
    over the nonzero pairs, the form it once had."""
    A, metric = F.A, F.metric
    zero = metric[0][0] * 0

    def apply(rows, v):
        return [sum((a * x for a, x in zip(row, v) if a and x), zero) for row in rows]

    def inner(a, b):
        return sum((conj(x) * y for x, y in zip(a, apply(metric, b)) if x and y), zero)

    return VectorModel(list(F.omega), lambda v, i: apply(A[i - 1], v), inner, None)


class TestPresentationModel:
    @pytest.mark.parametrize("name", ["dense_order_5", "sub_cuntz_twisted"])
    def test_float_moments_are_the_generator_form_bit_for_bit(self, name):
        omega = _dense_state(5, False) if name == "dense_order_5" else golden_state(name, "float")
        F = extract_fcs(omega)
        model, reference = F.model(), _generator_model(F)
        for J in words_upto(2, 3):
            for K in words_upto(2, 3):
                assert repr(model.moment(J, K)) == repr(reference.moment(J, K)), (J, K)


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


# the complex unitary of the golden twist tests, block-extended by 1 on n = 3
G_C = {
    2: [[["3/5", 0], [0, "4/5"]], [[0, "4/5"], ["3/5", 0]]],
    3: [[["3/5", 0], [0, "4/5"], 0], [[0, "4/5"], ["3/5", 0], 0], [0, 0, 1]],
}
HEAVY_FLOAT = ["n2_heavy_dense_m6", "n2_heavy_dense_m7", "n3_heavy_dense_m4"]


def _metric_case(name: str, bench_corpus):
    """A golden state, its twist by G_C (``name:twist``), or a heavy float
    state of the benchmark, built from its spec."""
    if name in HEAVY_FLOAT:
        n, m, z = bench_corpus.heavy_float()[name]
        return state_from_spec(bench_corpus.sub_cuntz(n, m, z, exact=False), "float")
    base, _, twist = name.partition(":")
    spec = json.loads((GOLDEN_SPECS / f"{base}.json").read_text(encoding="utf-8"))
    if twist:
        spec = {"family": "gauge", "base": spec, "g": G_C[golden_state(base).n]}
    return state_from_spec(spec)


def _same_scalar(a, b) -> bool:
    """Same type and value, and for a float or complex the same repr of both parts."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (float, complex)):
        return repr((a.real, a.imag)) == repr((b.real, b.imag))
    return a == b


GOLDEN_NAMES = sorted(p.stem for p in GOLDEN_SPECS.glob("*.json"))


class TestMetricRecord:
    """The metric of a presentation is the pivots' Gram matrix as the growth
    read it: each entry the value ``model.gram(pivots)`` gives, with no
    inner product read twice."""

    @pytest.mark.parametrize("name", [*GOLDEN_NAMES, *(f"{name}:twist" for name in GOLDEN_NAMES), *HEAVY_FLOAT])
    def test_metric_is_the_model_gram_entry_for_entry(self, name, bench_corpus):
        omega = _metric_case(name, bench_corpus)
        F = extract_fcs(omega)
        if not hasattr(F, "metric"):
            assert not gram_growth(omega).stabilized
            return
        gram = omega.model.gram(F.pivot_words)
        assert len(F.metric) == len(gram) == F.d
        for i, (got, want) in enumerate(zip(F.metric, gram)):
            assert len(got) == len(want)
            for j, (a, b) in enumerate(zip(got, want)):
                assert _same_scalar(a, b), (i, j, a, b)

    def test_most_cases_have_a_metric(self, bench_corpus):
        names = [*GOLDEN_NAMES, *(f"{name}:twist" for name in GOLDEN_NAMES), *HEAVY_FLOAT]
        presented = [name for name in names if hasattr(extract_fcs(_metric_case(name, bench_corpus)), "metric")]
        assert len(presented) >= 40 and set(HEAVY_FLOAT) <= set(presented)

    @staticmethod
    def _pivot_pairs(omega, read):
        """{pair of pivot words: times its inner product was read} while
        ``read(omega)`` runs, counted through the model's ``inner``."""
        model, reads = omega.model, []
        inner = model.inner

        def counted(a, b):
            reads.append((id(a), id(b)))
            return inner(a, b)

        model.inner = counted
        try:
            read(omega)
        finally:
            model.inner = inner
        word = {id(v): J for J, v in model._vectors.items()}
        assert len(word) == len(model._vectors)  # one vector object per word
        pivots = set(gram_growth(omega).pivots)
        return Counter(frozenset((word[a], word[b])) for a, b in reads if {word[a], word[b]} <= pivots)

    def test_the_presentation_of_the_dense_order_7_state_reads_no_pivot_pair_twice(self, bench_corpus):
        omega = _metric_case("n2_heavy_dense_m7", bench_corpus)
        pairs = self._pivot_pairs(omega, lambda w: presentation(w, gram_growth(w)))
        d = len(gram_growth(omega).pivots)
        # the growth reads every pair of the d pivots once, and the metric none again
        assert d > 20 and len(pairs) == d * (d + 1) // 2
        assert max(pairs.values()) == 1

    def test_fcs_reads_pivot_pairs_again_only_in_its_round_trips(self, bench_corpus):
        # extract_fcs checks twenty seeded moments against the state's own
        # model; those reads may meet a pivot pair, as at (), (1, 2)
        omega = _metric_case("n2_heavy_dense_m7", bench_corpus)
        rng = random.Random(fcs._ROUND_TRIP_SEED)
        growth_pairs = self._pivot_pairs(omega, lambda w: presentation(w, gram_growth(w)))
        pairs = self._pivot_pairs(omega, extract_fcs)
        max_len = min(gram_growth(omega).last_level + 2, 10)
        trips = Counter()
        for _ in range(fcs._ROUND_TRIP_COUNT):
            J = tuple(rng.randint(1, omega.n) for _ in range(rng.randint(0, max_len)))
            K = tuple(rng.randint(1, omega.n) for _ in range(rng.randint(0, max_len)))
            trips[frozenset((J, K))] += 1
        assert pairs == {p: t for p, t in trips.items() if p in growth_pairs}
