"""Moment functionals: constructors, frozen values, and structure identities.

Every expected number below was computed by hand from the defining formulas
before being compared against the library.
"""

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import cos, sin

from cuntzlab import (
    LAZY_PRESETS,
    CuntzElement,
    EmptyWord,
    EventuallyPeriodicWord,
    GridRepresentation,
    IsometrySequence,
    LowerBoundOnly,
    Minimal,
    PropInfCheck,
    ProperlyInfinite,
    ShiftPeriod,
    ShiftRepresentation,
    VectorModel,
    MomentFunctional,
    NotNormalized,
    NotPrefixFree,
    NotUnit,
    QQi,
    SchemaError,
    ValidationFailed,
    adjoint,
    all_words,
    cdim,
    equivalent,
    extract_fcs,
    gen,
    gram_growth,
    gram_matrix,
    hat_parameter,
    hat_parameter_inverse,
    kappa,
    make_cuntz,
    make_geometric_progression,
    make_induced_product,
    make_mixture,
    make_prefix_code_state,
    make_split_series_sandwich,
    make_sub_cuntz,
    monomial,
    multiply,
    parse_spec,
    positivity_check,
    pure,
    solve_low_moments,
    state_from_spec,
    transform_gauge,
    transform_sandwich,
    vector_state,
    words_upto,
)
import cuntzlab.moments as moments_mod
import cuntzlab.linalg as linalg_mod
from cuntzlab.linalg import kernel_basis, rank
from cuntzlab.moments import _code_lookup, word_model
from cuntzlab.scalars import DEFAULT_EQ_TOL, conj, gaussian_parts
from cuntzlab.symalg import gauge_image
from cuntzlab.words import is_prefix

from conftest import fr, q
from test_elimination_oracles import min_norm_oracle

Z35 = [q(fr(3, 5)), q(fr(4, 5))]
Z35I = [q(fr(3, 5)), q(0, fr(4, 5))]
ROT = [
    [q(fr(3, 5)), q(fr(-4, 5))],
    [q(fr(4, 5)), q(fr(3, 5))],
]


class TestCuntzStates:
    def test_moment_is_left_conjugated_product(self):
        w = make_cuntz(Z35)
        # omega(s_J s_K*) = conj(z_J) z_K
        assert w.moment((), ()) == 1
        assert w.moment((1,), ()) == fr(3, 5)
        assert w.moment((1,), (2,)) == fr(12, 25)
        assert w.moment((1, 2), (2, 1)) == fr(144, 625)

    def test_complex_parameter_conjugation_side(self):
        w = make_cuntz([q(0, 1), q(0)])  # z = (i, 0)
        assert w.moment((1,), ()) == QQi(0, -1)
        assert w.moment((), (1,)) == QQi(0, 1)

    def test_moment_reads_the_model(self):
        w = make_cuntz(Z35)
        assert w.model((1, 2), (2, 1)) == w.model.moment((1, 2), (2, 1)) == w.moment([1, 2], [2, 1])

    def test_moment_of_element_sums_terms(self):
        w = make_cuntz(Z35)
        x = multiply(monomial(2, (1, 2), (2, 1)), monomial(2, (2, 1), (2,)))
        # omega(s_12 s_2*) = conj(z_1 z_2) z_2 = 48/125
        assert w.moment_of_element(x) == fr(48, 125)

    def test_moment_of_element_reads_the_model(self, monkeypatch):
        # not the checked moment(): the certificate check that calls it reads the model
        def refuse(self, *args):
            raise AssertionError("moment() called")

        w = make_cuntz(Z35)
        monkeypatch.setattr(MomentFunctional, "moment", refuse)
        x = multiply(monomial(2, (1, 2), (2, 1)), monomial(2, (2, 1), (2,)))
        assert w.moment_of_element(x) == fr(48, 125)

    def test_unit_vector_required(self):
        with pytest.raises(NotUnit):
            make_cuntz([q(1), q(1)])

    @pytest.mark.parametrize("J, K", [((0,), ()), ((), (3,)), ((1, True), ()), ((), (False,))],
                             ids=["letter_0", "letter_n_plus_1", "bool_true", "bool_false"])
    def test_public_moment_validates_letters(self, J, K):
        # letter 0, letter n + 1 and a bool are not letters of O_2
        with pytest.raises(SchemaError):
            make_cuntz(Z35).moment(J, K)
        with pytest.raises(SchemaError):
            MomentFunctional(2, "raw", make_cuntz(Z35).model.moment).moment(J, K)

    def test_only_a_function_built_state_fills_the_memo(self):
        w = make_cuntz(Z35)
        raw = MomentFunctional(2, "raw", lambda J, K: w.model(J, K))
        assert raw.moment([1, 2], [2]) == w.moment([1, 2], [2]) == fr(48, 125)
        assert list(raw._memo) == [((1, 2), (2,))] and w._memo == {}

    def test_float_parameters_allowed(self):
        w = make_cuntz([2 ** -0.5, 2 ** -0.5])
        assert not w.exact
        assert abs(w.moment((1,), (2,)) - 0.5) < 1e-12


class TestWordStates:
    def test_word_12_parity_table(self):
        # supported on the orbit of (1 2)^inf: nonzero iff J and K are both
        # prefixes of that sequence with the same shifted tail
        w = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        ones = [((), ()), ((1,), (1,)), ((1, 2), ()), ((1, 2), (1, 2)), ((1, 2, 1), (1,))]
        zeros = [((1,), ()), ((2,), (2,)), ((2, 1), (2, 1)), ((1,), (1, 2))]
        for J, K in ones:
            assert w.moment(J, K) == 1, (J, K)
        for J, K in zeros:
            assert w.moment(J, K) == 0, (J, K)

    def test_conjugate_word_vanishing_moment(self):
        w21 = make_prefix_code_state([(2, 1)], {(2, 1): 1}, 2)
        assert w21.moment((1, 2), ()) == 0
        assert w21.moment((2, 1), ()) == 1

    def test_coefficients_must_sit_on_the_code(self):
        with pytest.raises(SchemaError):
            make_prefix_code_state([(1, 2)], {(2, 1): 1}, 2)

    def test_partial_coefficient_maps_are_zero_filled(self):
        w = make_prefix_code_state([(1,), (2, 1), (2, 2)], {(1,): 1}, 2)
        assert w.moment((1,), ()) == 1
        assert w.moment((2, 1), ()) == 0

    def test_code_must_be_prefix_free(self):
        with pytest.raises(NotPrefixFree):
            make_prefix_code_state([(1,), (1, 2)], {(1,): 1}, 2)

    @settings(max_examples=200)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(1, n), min_size=1, max_size=4).map(tuple), min_size=1, max_size=6, unique=True))))
    def test_prefix_freeness_is_the_all_pairs_test(self, case):
        # the reference tests every ordered pair of distinct words; with
        # several offending pairs the message names the first in lexicographic order
        n, words = case
        pairs = [(a, b) for a in words for b in words if a != b and is_prefix(a, b)]
        if not pairs:
            assert moments_mod._validate_prefix_code(words, n) == words
            return
        with pytest.raises(NotPrefixFree) as e:
            moments_mod._validate_prefix_code(words, n)
        a, b = min(pairs)
        assert str(e.value) == f"{a} is a prefix of {b}"

    def test_order_one_code_is_a_cuntz_state(self):
        w = make_prefix_code_state([(1,), (2,)], {(1,): Z35[0], (2,): Z35[1]}, 2)
        assert w.family == "cuntz"
        assert w.moment((1,), (2,)) == fr(12, 25)


class TestSubCuntz:
    def test_basis_tensor_is_determined(self):
        w = make_sub_cuntz(2, {(1, 2): 1}, 2)
        assert w.facts.solution_dim == 1
        assert w.moment((1, 2), ()) == 1
        assert w.moment((1,), (1,)) == 1

    def test_tensor_square_odd_moments_average_out(self):
        # x^{(x)2} leaves a sign ambiguity at odd levels; the symmetric
        # representative zeroes them while even levels stay multiplicative
        zz = {}
        for J in product((1, 2), repeat=2):
            zz[J] = Z35[J[0] - 1] * Z35[J[1] - 1]
        w = make_sub_cuntz(2, zz, 2)
        assert w.facts.solution_dim == 2
        assert w.moment((1,), ()) == 0
        assert w.moment((1, 2), ()) == fr(12, 25)
        assert w.moment((1,), (2,)) == fr(12, 25)

    @pytest.mark.parametrize("p", [2, 3])
    def test_tensor_power_solution_space_dimension(self, p):
        zz = {}
        for J in product((1, 2), repeat=p):
            v = q(1)
            for a in J:
                v = v * Z35[a - 1]
            zz[J] = v
        w = make_sub_cuntz(p, zz, 2)
        assert w.facts.solution_dim == p

    @pytest.mark.parametrize("p", [2, 3])
    def test_float_tensor_power_solution_space_dimension(self, p):
        # the kernel spans several blocks of the fixed-point system, and the
        # symmetric table is the minimum-norm point over all of it
        exact, floats = {}, {}
        for J in product((1, 2), repeat=p):
            v = q(1)
            for a in J:
                v = v * Z35[a - 1]
            exact[J], floats[J] = v, complex(v)
        w, wf = make_sub_cuntz(p, exact, 2), make_sub_cuntz(p, floats, 2)
        assert not wf.exact and wf.facts.solution_dim == p
        for J in words_upto(2, p):
            for K in words_upto(2, p):
                assert abs(wf.moment(J, K) - complex(w.moment(J, K))) < 1e-12, (J, K)


class TestGeometricProgression:
    def test_hat_parameter_frozen_values(self):
        # k=2, y=(3/5, 4/5): coefficients (y_1, y_2 y_1, y_2 y_2)
        h = hat_parameter(Z35, 2)
        assert h == [q(fr(3, 5)), q(fr(12, 25)), q(fr(16, 25))]
        # unit on the nose: (15^2 + 12^2 + 16^2)/25^2 = 625/625
        assert sum(v.abs2() for v in h) == 1

    def test_hat_parameter_inverse_round_trip(self):
        h = hat_parameter(Z35, 2)
        assert tuple(hat_parameter_inverse(h, 2, 2)) == tuple(Z35)

    def test_hat_parameter_state_has_dimension_one(self):
        from cuntzlab import cdim

        w = make_geometric_progression(2, hat_parameter(Z35, 2), 2)
        r = cdim(w)
        assert (r.value, r.status) == (1, "stabilized")

    def test_generic_parameters_reach_dimension_k(self):
        from cuntzlab import cdim

        w = make_geometric_progression(2, [q(fr(3, 5)), q(0), q(fr(4, 5))], 2)
        r = cdim(w)
        assert (r.value, r.status) == (2, "stabilized")

    def test_unit_vector_required(self):
        with pytest.raises(NotUnit):
            make_geometric_progression(2, [q(1), q(1), q(1)], 2)


class TestInducedProduct:
    def test_periodic_block_moments(self):
        w = make_induced_product([], [Z35, [q(0), q(1)]], 2)
        assert w.moment((1, 2), (1, 2)) == fr(9, 25)
        assert w.moment((2, 2), (1, 2)) == fr(12, 25)
        assert w.moment((1,), ()) == 0
        assert w.moment((), ()) == 1

    def test_carries_an_isometry_sequence(self):
        w = make_induced_product([], [Z35, [q(0), q(1)]], 2)
        assert w.facts.sequence is not None

    def test_blocks_must_be_units(self):
        with pytest.raises(NotUnit):
            make_induced_product([], [[q(1), q(1)]], 2)

    @pytest.mark.parametrize("n", [1, 0])
    def test_an_alphabet_below_two_letters_is_refused(self, n):
        # the state's own isometry sequence would be over O_1, which CuntzElement refuses
        with pytest.raises(SchemaError, match=f"^alphabet size must be >= 2, got {n}$"):
            make_induced_product([], [[q(1)] * n], n)


class TestIsometries:
    def test_a_sequence_is_read_to_the_count(self):
        calls = []

        def factory(i):
            calls.append(i)
            return gen(2, 2 - i % 2)

        seq = IsometrySequence(factory, "evidence", "s_1, s_2, s_1, ...")
        assert moments_mod.isometries(seq, 3, 2) == [gen(2, 1), gen(2, 2), gen(2, 1)]
        assert calls == [1, 2, 3]

    def test_a_list_is_cut_to_the_count_and_only_that_part_is_checked(self):
        a = [gen(2, 1), gen(2, 2), monomial(2, (1,), (1,))]
        assert moments_mod.isometries(a, 2, 2) == a[:2]
        with pytest.raises(NotUnit, match="^a_3 is not an isometry in the creation span$"):
            moments_mod.isometries(a, 3, 2)

    def test_the_record_is_a_named_tuple(self):
        seq = IsometrySequence(gen, "proved", "d")
        assert seq._fields == ("factory", "status", "description", "horizon") and seq.horizon is None
        moved = seq._replace(description="e")
        assert moved == (gen, "proved", "e", None)


def _induced_formula(blocks, exact, J, K):
    """The moments as they were computed before the vector model: conj(z_J) z_K
    for |J| = |K|, z_J = z^(1)_{j_1} z^(2)_{j_2} ... multiplied left to right
    from 1, and 0 otherwise."""
    if len(J) != len(K):
        return QQi(0) if exact else 0j

    def z(W):
        out = 1
        for t, a in enumerate(W):
            out = out * blocks.at(t + 1)[a - 1]
        return out

    return conj(z(J)) * z(K)


def _model_pairs(n, seed):
    """Every pair with |J|, |K| <= 4, then 30 seeded pairs of words up to length 12."""
    short = list(words_upto(n, 4))
    yield from product(short, short)
    rng = random.Random(seed)
    for _ in range(30):
        length = rng.randint(5, 12)
        yield tuple(rng.randint(1, n) for _ in range(length)), tuple(rng.randint(1, n) for _ in range(length))


def _float_unit(a, b):
    return [complex(cos(a), 0.0), complex(sin(a) * cos(b), sin(a) * sin(b))]


class TestInducedProductModel:
    """Moments are inner products of v_J = z_J e_|J|; the pre-model formula is the oracle."""

    def test_exact_moments_match_the_formula(self):
        w = make_induced_product([Z35], [Z35I, [q(fr(5, 13)), q(0, fr(-12, 13))]], 2)
        for J, K in _model_pairs(2, 5):
            assert w.moment(J, K) == _induced_formula(w.facts.induced, True, J, K), (J, K)

    def test_exact_moments_over_three_letters(self):
        w = make_induced_product([], [[q(fr(1, 3)), q(fr(2, 3)), q(0, fr(2, 3))], [q(0), q(1), q(0)]], 3)
        for J, K in _model_pairs(3, 7):
            assert w.moment(J, K) == _induced_formula(w.facts.induced, True, J, K), (J, K)

    def test_float_moments_are_bit_identical(self):
        w = make_induced_product([_float_unit(0.3, 1.1)], [_float_unit(2.0, -0.4), _float_unit(-1.2, 3.0)], 2)
        assert not w.exact
        for J, K in _model_pairs(2, 9):
            # repr keeps every bit, the sign of a zero included
            assert repr(w.moment(J, K)) == repr(_induced_formula(w.facts.induced, False, J, K)), (J, K)

    def test_model_vectors_are_memoized_by_prefix(self):
        w = make_induced_product([], [Z35, Z35I], 2)
        model = w.model
        v = model.vector((1, 2, 2))
        assert model.vector((1, 2, 2)) is v
        assert set(model._vectors) >= {(), (1,), (1, 2), (1, 2, 2)}
        assert v == {3: Z35[0] * Z35I[1] * Z35[1]}


class TestSeriesState:
    def test_frozen_dyadic_moments(self):
        w = make_split_series_sandwich()
        expected = {
            ((), ()): 1,
            ((1,), (1,)): fr(1, 2),
            ((2,), (2,)): fr(1, 2),
            ((2, 1), (2, 1)): fr(1, 4),
            ((2, 2), (2, 2)): fr(1, 4),
            ((1,), (1, 1)): 0,
            ((1, 2), (2, 1, 2, 2)): 0,
        }
        for (J, K), v in expected.items():
            assert w.moment(J, K) == v, (J, K)

    def test_exact_level_rank_grows_one_per_level(self):
        w = make_split_series_sandwich()
        for L in range(1, 7):
            words = list(all_words(2, L))
            assert rank(gram_matrix(w, words)) == L + 1

    def test_off_diagonal_support_blocks(self):
        w = make_split_series_sandwich()
        # both (2 1 ...) and (2 2 ...) branches are hit at weight 1/4
        assert w.moment((2, 1), (2, 2)) == 0
        assert w.exact


def _x_word(l: int) -> EventuallyPeriodicWord:
    """x_l = 2^(l-1) 1 2^l 1 1 1 ..."""
    return EventuallyPeriodicWord((2,) * (l - 1) + (1,) + (2,) * l, (1,), 2)


def _series_closed_form(J, K):
    """The independent oracle of the series sandwich: the diagonal series

        omega(s_J s_K*) = sum_l 2^-l [x_l starts J][x_l starts K]
                                     [shift^|J| x_l = shift^|K| x_l],

    finitely many l plus the geometric tail over l > max(|J|, |K|), which
    survives only when J = K is a power of the letter 2."""
    lcut = max(len(J), len(K), 1) + 1
    total = Fraction(0)
    for l in range(1, lcut):
        x = _x_word(l)
        if x.starts_with(J) and x.starts_with(K) and x.shift_by(len(J)) == x.shift_by(len(K)):
            total += Fraction(1, 2**l)
    if J == K and set(J) <= {2}:
        total += Fraction(1, 2 ** (lcut - 1))
    return QQi(total)


class TestSeriesModel:
    """The series sandwich steps the direct sum over l of its permutative
    models, keyed ("e", l, t) and ("T", k)."""

    # T_k is written out over the summands l < CUTOFF
    CUTOFF = 12

    def _explicit(self, key) -> set:
        """The basis vectors (l, shift^t x_l) a key stands for, each with
        amplitude 2^(-l/2)."""
        if key[0] == "T":
            return {(l, _x_word(l).shift_by(key[1])) for l in range(key[1] + 1, self.CUTOFF)}
        _, l, t = key
        return {(l, _x_word(l).shift_by(t))}

    @staticmethod
    def _explicit_inner(a: set, b: set):
        return sum((Fraction(1, 2**l) for l, y in a & b), Fraction(0))

    def test_model_matches_the_closed_form(self, no_word_model):
        w = make_split_series_sandwich()
        words = list(words_upto(2, 6))
        for J in words:
            for K in words:
                got = w.moment(J, K)
                assert type(got) is QQi and got == _series_closed_form(J, K), (J, K)

    def test_the_tail_keys(self):
        model = make_split_series_sandwich().model
        assert model.vector(()) == {("T", 0): 1}
        T = {k: {("T", k): QQi(1)} for k in range(8)}
        for k in range(8):
            for k2 in range(8):
                assert model.inner(T[k], T[k2]) == (Fraction(1, 2**k) if k == k2 else 0), (k, k2)
            # s_2* T_k = T_(k+1) and s_1* T_k = e(k+1, k+1), checked on the written-out sums
            assert model.step(T[k], 2) == {("T", k + 1): 1}
            assert model.step(T[k], 1) == {("e", k + 1, k + 1): 1}
            ex = self._explicit(("T", k))
            twos = {(l, y.shift()) for l, y in ex if y.letter(1) == 2}
            ones = {(l, y.shift()) for l, y in ex if y.letter(1) == 1}
            assert twos == self._explicit(("T", k + 1))
            assert ones == self._explicit(("e", k + 1, k + 1))

    def test_the_tail_keys_meet_no_e_key_a_word_reaches(self):
        model = make_split_series_sandwich().model
        reached = {key for J in words_upto(2, 9) for key in model.vector(J) if key[0] == "e"}
        assert all(l <= t <= 2 * l for _, l, t in reached)
        for k in range(9):
            tail = self._explicit(("T", k))
            for key in reached:
                assert model.inner({("T", k): QQi(1)}, {key: QQi(1)}) == 0
                assert self._explicit_inner(tail, self._explicit(key)) == 0, (k, key)

    def test_long_twisted_moments_match_the_double_sum(self):
        base = make_split_series_sandwich()
        w = transform_gauge(base, G_C)
        rng = random.Random(53)
        for _ in range(3):
            J, K = (tuple(rng.randint(1, 2) for _ in range(8)) for _ in range(2))
            assert w.moment(J, K) == _expanded_moment(base, G_C, J, K), (J, K)
        assert w.moment((2,) * 8, (2,) * 8) == _expanded_moment(base, G_C, (2,) * 8, (2,) * 8)


class TestGramFromVectors:
    """gram_matrix and positivity_check read a modelled state's Gram matrix
    off its vectors: every entry equals the moment, type included, and the
    moment memo stays empty."""

    STATES = {
        "series": make_split_series_sandwich,
        "exact_twist": lambda: transform_gauge(make_split_series_sandwich(), G_C),
        "float_twist": lambda: transform_gauge(make_prefix_code_state([(1, 1, 2)], [q(1)], 2),
                                               [[complex(x) for x in row] for row in G_C]),
        "mixture": lambda: make_mixture([make_cuntz(Z35), make_split_series_sandwich()], [fr(1, 2), fr(1, 2)]),
        "sandwich": lambda: transform_sandwich(make_cuntz(Z35), [(q(0, 1), gen(2, 2))]),
        "grid": lambda: vector_state(GridRepresentation(2), (2, 1)),
    }

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_entries_are_the_moments(self, name):
        w = self.STATES[name]()
        words = list(words_upto(2, 3))
        G = gram_matrix(w, words)
        assert w._memo == {}
        assert positivity_check(w, level=2)[0]
        assert w._memo == {}
        for J, row in zip(words, G):
            for K, x in zip(words, row):
                want = w.moment(J, K)
                assert x == want and type(x) is type(want), (J, K)

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_a_rectangular_block_is_the_moments(self, name):
        # rows against cols lie below the diagonal of the Gram matrix of
        # cols + rows, so each entry of the block is a mirrored conjugate
        w = self.STATES[name]()
        rows, cols = list(words_upto(2, 2)), [(2,), (1, 2, 1), (), (2, 2)]
        G = w.model.gram(cols + rows)
        assert w._memo == {}
        block = [row[:len(cols)] for row in G[len(cols):]]
        assert [len(row) for row in block] == [len(cols)] * len(rows)
        for J, row in zip(rows, block):
            for K, x in zip(cols, row):
                want = w.moment(J, K)
                assert x == want and type(x) is type(want), (J, K)
        assert [row[:len(cols)] for row in G[:len(cols)]] == w.model.gram(cols)

    def test_the_float_twist_reads_its_exact_unit_next_to_complex_zeros(self):
        # omega(I) is the base's own; every other moment of a float twist is complex
        model = self.STATES["float_twist"]().model
        one, zero = model.moment((), ()), model.moment((), (1,))
        assert type(one) is QQi and one == 1
        assert type(zero) is complex and zero == 0

    def test_a_raw_functional_reads_its_memo(self):
        # its word model's inner product reads the memo, one entry per pair
        # on or above the diagonal
        w = MomentFunctional(2, "sandwich_series", _series_closed_form)
        words = list(words_upto(2, 2))
        assert gram_matrix(w, words) == gram_matrix(make_split_series_sandwich(), words)
        assert len(w._memo) == len(words) * (len(words) + 1) // 2

    def test_every_consumer_steps_the_one_model_of_a_raw_functional(self):
        from cuntzlab import verify_properly_infinite

        cuntz = make_cuntz(Z35)
        w = MomentFunctional(2, "raw", lambda J, K: cuntz.model(J, K))
        model = w.model
        assert model.vector((1,)) == {(1,): 1}
        inner, reads = model.inner, []

        def spy(x, y):
            reads.append((x, y))
            return inner(x, y)

        model.inner = spy
        uses = {
            "gram_matrix": lambda: gram_matrix(w, list(words_upto(2, 2))),
            "twist": lambda: transform_gauge(w, ROT).moment((1,), (2, 1)),
            "sandwich": lambda: transform_sandwich(w, [(q(1), gen(2, 1))]).moment((1,), (2,)),
            "mixture": lambda: make_mixture([w, make_cuntz([q(1), q(0)])],
                                            [q(fr(1, 2)), q(fr(1, 2))]).moment((1,), ()),
            "delta table": lambda: verify_properly_infinite(w, [gen(2, 1)] * 3, cutoff=3),
        }
        for name, use in uses.items():
            before = len(reads)
            use()
            assert len(reads) > before, name
        assert w.model is model

    def test_a_bad_word_is_refused(self):
        with pytest.raises(SchemaError):
            gram_matrix(make_split_series_sandwich(), [(1,), (3,)])


class TestMixture:
    def test_even_mixture_of_orthogonal_cuntz_states(self):
        from cuntzlab import cdim

        m = make_mixture(
            [make_cuntz([q(1), q(0)]), make_cuntz([q(0), q(1)])],
            [fr(1, 2), fr(1, 2)],
        )
        assert m.moment((1,), (1,)) == fr(1, 2)
        assert m.moment((1,), (2,)) == 0
        assert cdim(m).value == 2

    def test_weights_validated(self):
        parts = [make_cuntz([q(1), q(0)]), make_cuntz([q(0), q(1)])]
        with pytest.raises(SchemaError):
            make_mixture(parts, [fr(1, 2), fr(1, 3)])
        with pytest.raises(SchemaError):
            make_mixture(parts, [fr(3, 2), fr(-1, 2)])
        with pytest.raises(SchemaError):
            make_mixture(parts[:1], [fr(1, 2)])

    def test_weights_that_are_not_real_are_refused(self):
        # 1/2 + i/10 and 1/2 - i/10 sum to 1, and would give omega(s_1 s_1*) = 1/2 + i/10
        exact = [make_cuntz([q(1), q(0)]), make_cuntz([q(0), q(1)])]
        floats = [make_cuntz([1.0, 0.0]), make_cuntz([0.0, 1.0])]
        for parts in (exact, exact[:1] * 2):
            with pytest.raises(SchemaError, match="weights must be positive and sum to 1"):
                make_mixture(parts, [q(fr(1, 2), fr(1, 10)), q(fr(1, 2), fr(-1, 10))])
        # an exact imaginary part is refused however small, a float one beyond DEFAULT_EQ_TOL
        with pytest.raises(SchemaError, match="weights must be positive and sum to 1"):
            make_mixture(exact, [q(fr(1, 2), fr(1, 10**30)), q(fr(1, 2), fr(-1, 10**30))])
        for parts in (floats, floats[:1] * 2):
            with pytest.raises(SchemaError, match="weights must be positive and sum to 1"):
                make_mixture(parts, [0.5 + 0.1j, 0.5 - 0.1j])
        with pytest.raises(SchemaError, match="weights must be positive and sum to 1"):
            make_mixture(floats, [0.5 + 1e-8j, 0.5 - 1e-8j])
        m = make_mixture(floats, [0.5 + 1e-12j, 0.5 - 1e-12j])
        assert abs(m.moment((1,), (1,)) - 0.5) < 1e-9
        # a real weight that is a QQi is accepted
        assert make_mixture(exact, [q(fr(1, 2)), q(fr(1, 2))]).moment((1,), (1,)) == fr(1, 2)


class TestSandwich:
    def test_compression_by_one_isometry(self):
        base = make_cuntz([q(1), q(0)])
        w = transform_sandwich(base, [(1, gen(2, 2))])
        # omega'(x) = omega(s_2* x s_2) over the z=(1,0) state:
        # s_2* s_i s_2 collapses to 0 for both generators, but
        # s_2* s_21 s_21* s_2 = s_1 s_1* has moment 1
        assert w.moment((), ()) == 1
        assert w.moment((1,), ()) == 0
        assert w.moment((2,), ()) == 0
        assert w.moment((2, 1), (2, 1)) == 1
        assert w.moment((2, 2), (2, 2)) == 0

    def test_moments_match_the_double_sum_over_terms(self):
        # omega'(x) = sum_{l,l'} conj(c_l) c_l' omega(A_l* x A_l'), term by term;
        # the mass is (12/25)^2 + (3/5)^2 (9/25) + (4/5)^2 = 1, the cross terms cancel
        base = make_cuntz(Z35I)
        terms = [(q(fr(12, 25)), gen(2, 1)), (q(0, fr(3, 5)), monomial(2, (2, 1), (1,))), (q(fr(-4, 5)), gen(2, 2))]
        w = transform_sandwich(base, terms)
        for J, K in product(words_upto(2, 2), repeat=2):
            x = monomial(2, J, K)
            want = sum(
                (c.conjugate() * d * base.moment_of_element(multiply(multiply(adjoint(A), x), B))
                 for c, A in terms for d, B in terms),
                0,
            )
            assert w.moment(J, K) == want

    def test_mass_other_than_one_is_refused(self):
        # A Omega = 3/5 s_1 Omega has mass 9/25: a functional, not a state
        with pytest.raises(NotNormalized) as e:
            transform_sandwich(make_cuntz([q(1), q(0)]), [(q(fr(3, 5)), gen(2, 1))])
        assert str(e.value) == "transform has total mass 9/25, expected 1"

    def test_user_supplied_equivalence_is_recorded(self):
        base = make_cuntz([q(1), q(0)])
        w = transform_sandwich(base, [(1, gen(2, 2))], equivalent_to_cuntz=[1, 0])
        assert w.facts.cuntz == ((1, 0), "user")


class TestGauge:
    def test_rotated_state_moments(self):
        w = transform_gauge(make_cuntz([q(1), q(0)]), ROT)
        # (omega . alpha_g)(s_j) reads column j of the rotation
        assert w.moment((1,), ()) == fr(3, 5)
        assert w.moment((2,), ()) == fr(-4, 5)

    def test_permutation_swap(self):
        w = transform_gauge(make_cuntz(Z35), [[0, 1], [1, 0]])
        assert w.moment((1,), ()) == fr(4, 5)

    def test_unitary_required(self):
        from cuntzlab import NotUnitary

        with pytest.raises(NotUnitary):
            transform_gauge(make_cuntz(Z35), [[1, 0], [0, 2]])


# a unitary with complex entries, so the conjugation in S'_i = sum_j conj(g_ji) S_j shows
G_C = [[q(fr(3, 5)), q(0, fr(4, 5))], [q(0, fr(4, 5)), q(fr(3, 5))]]


def _expanded_moment(base, g, J, K):
    """The independent oracle: omega(alpha_g(s_J) alpha_g(s_K)*) as the double
    sum over the n^|J| and n^|K| words of the two gauge images."""
    image_k = gauge_image(g, K)
    return sum((a * conj(b) * base.model.moment(Jp, Kp)
                for Jp, a in gauge_image(g, J).items() for Kp, b in image_k.items()), 0)


def _pairs(n, seed):
    """Every pair with |J|, |K| <= 3, then 20 seeded pairs up to length 8 (at
    most 11 letters in all, so the oracle's double sum stays small)."""
    short = list(words_upto(n, 3))
    yield from product(short, short)
    rng = random.Random(seed)
    for _ in range(20):
        lj = rng.randint(4, 8)
        lk = rng.randint(0, 11 - lj)
        yield (tuple(rng.randint(1, n) for _ in range(lj)), tuple(rng.randint(1, n) for _ in range(lk)))


def _product_matrix(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), 0) for j in range(len(b[0]))] for i in range(len(a))]


def _close_to_expansion(w, base, g, pairs):
    """A float twist against the double sum: within DEFAULT_EQ_TOL, not bit for bit."""
    for J, K in pairs:
        d = abs(complex(w.moment(J, K)) - complex(_expanded_moment(base, g, J, K)))
        assert d <= DEFAULT_EQ_TOL, (J, K, d)


def _spy_growth(monkeypatch, only=None) -> list:
    """The states classify.gram_growth is called on from now on; given
    ``only``, growing any other state fails at once instead of running."""
    import cuntzlab.classify as classify

    grown = []
    grow = classify.gram_growth

    def spy(omega, *args, **kwargs):
        grown.append(omega)
        assert only is None or omega is only, f"grew {omega!r}"
        return grow(omega, *args, **kwargs)

    monkeypatch.setattr(classify, "gram_growth", spy)
    return grown


class TestGaugeThroughPresentation:
    """Twists step the base's model, chosen at construction: the family's own
    (suffix, mixture, sandwich, induced, vector) or, for the series sandwich
    and raw functionals, the word model.  The double sum is the oracle."""

    BASES = {
        "word_112": lambda: make_prefix_code_state([(1, 1, 2)], [q(1)], 2),
        "cuntz": lambda: make_cuntz(Z35I),
        "prefix_code": lambda: make_prefix_code_state(
            [(1, 1), (1, 2), (2,)], [q(fr(2, 3)), q(fr(1, 3)), q(0, fr(2, 3))], 2),
        "dense_sub_cuntz": lambda: make_sub_cuntz(2, [q(fr(1, 2)), q(0, fr(1, 2)), q(fr(-1, 2)), q(fr(1, 2))], 2),
    }

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_matches_the_double_sum(self, name):
        base = self.BASES[name]()
        w = transform_gauge(base, G_C)
        for J, K in _pairs(2, 17):
            assert w.moment(J, K) == _expanded_moment(base, G_C, J, K), (J, K)

    def test_twist_of_a_twist_is_the_twist_by_the_product(self):
        # alpha_g1 alpha_g2 = alpha_(g1 g2), so the root base is the oracle's
        base = self.BASES["word_112"]()
        w = transform_gauge(transform_gauge(base, G_C), ROT)
        g = _product_matrix(G_C, ROT)
        for J, K in _pairs(2, 23):
            assert w.moment(J, K) == _expanded_moment(base, g, J, K), (J, K)

    def test_float_twist_steps_the_suffix_model(self, no_word_model):
        base = self.BASES["word_112"]()
        g = [[complex(x) for x in row] for row in G_C]
        w = transform_gauge(base, g)
        assert not w.exact
        _close_to_expansion(w, base, g, _pairs(2, 19))

    def test_twist_of_a_twist_never_grows_the_inner_twist(self, monkeypatch):
        # both twists step the prefix-code base's suffix model: nothing is grown
        grown = _spy_growth(monkeypatch)
        base = self.BASES["word_112"]()
        inner = transform_gauge(base, G_C)
        w = transform_gauge(inner, ROT)
        g = _product_matrix(G_C, ROT)
        for J, K in _pairs(2, 31):
            assert w.moment(J, K) == _expanded_moment(base, g, J, K), (J, K)
        assert grown == []

    def test_twist_of_an_induced_product_steps_its_model(self, no_word_model):
        # the base's rank grows by one per level, so no presentation exists;
        # the twist steps the base's vectors by S'_i = sum_j conj(g_ji) S_j
        base = make_induced_product([Z35], [Z35I], 2)
        w = transform_gauge(base, G_C)
        for J, K in _pairs(2, 29):
            assert w.moment(J, K) == _expanded_moment(base, G_C, J, K), (J, K)

    VECTOR_BASES = {
        "grid": lambda: vector_state(GridRepresentation(2), (1, 0)),
        "grid_superposition": lambda: vector_state(
            GridRepresentation(2), {(1, 0): q(1), (2, 0): q(0, 1), (3, 2): q(fr(1, 2))}),
        "lazy_shift": lambda: vector_state(ShiftRepresentation(LAZY_PRESETS["thue_morse"](32)), ((), 0)),
        "shift": lambda: vector_state(ShiftRepresentation(EventuallyPeriodicWord((1,), (1, 2), 2)),
                                      EventuallyPeriodicWord((1,), (1, 2), 2)),
    }

    @pytest.mark.parametrize("name", sorted(VECTOR_BASES))
    def test_twist_of_a_vector_state_steps_its_model(self, name, no_word_model):
        base = self.VECTOR_BASES[name]()
        w = transform_gauge(base, G_C)
        for J, K in _pairs(2, 37):
            assert w.moment(J, K) == _expanded_moment(base, G_C, J, K), (J, K)

    def test_twist_of_a_modelled_twist(self):
        base = make_induced_product([], [Z35I, Z35], 2)
        w = transform_gauge(transform_gauge(base, G_C), ROT)
        g = _product_matrix(G_C, ROT)
        for J, K in _pairs(2, 41):
            assert w.moment(J, K) == _expanded_moment(base, g, J, K), (J, K)

    def test_float_twist_of_a_modelled_base_steps_its_model(self, no_word_model):
        base = make_induced_product([Z35], [Z35I], 2)
        g = [[complex(x) for x in row] for row in G_C]
        w = transform_gauge(base, g)
        _close_to_expansion(w, base, g, _pairs(2, 43))
        # the exact base's zeros (|J| != |K|) come out complex, as from the expansion
        assert all(isinstance(w.moment(J, K), complex) for J, K in product(words_upto(2, 3), repeat=2) if J or K)

    def test_twist_of_a_mixture_steps_its_model(self, monkeypatch, no_word_model):
        # the mixture's vectors are the tuples of its components' vectors
        grown = _spy_growth(monkeypatch)
        base = make_mixture([make_induced_product([Z35], [Z35I], 2), make_induced_product([], [Z35I, Z35], 2)],
                            [q(fr(1, 3)), q(fr(2, 3))])
        w = transform_gauge(base, G_C)
        for J, K in _pairs(2, 47):
            assert w.moment(J, K) == _expanded_moment(base, G_C, J, K), (J, K)
        assert grown == []

    UNMODELLED_BASES = {
        # a raw functional over the series sandwich's closed form
        "series_sandwich": lambda: MomentFunctional(2, "sandwich_series", _series_closed_form),
    }

    @pytest.mark.parametrize("name", sorted(UNMODELLED_BASES))
    def test_a_base_with_neither_model_keeps_the_expansion(self, name):
        # a raw functional has no model of its own, so the twist steps its
        # word model, whose vectors are the gauge images
        base = self.UNMODELLED_BASES[name]()
        w = transform_gauge(base, G_C)
        assert base.model.vector((1,)) == {(1,): 1} and w.model.vector(()) is base.model.vector(())
        for J, K in product(words_upto(2, 3), repeat=2):
            assert w.moment(J, K) == _expanded_moment(base, G_C, J, K), (J, K)

    def test_twist_of_a_twisted_series_sandwich_never_grows_the_inner_twist(self, monkeypatch):
        # the inner twist keeps the sandwich's twisted model, so the outer
        # twist steps it, and no twist grows its base either
        base = make_split_series_sandwich()
        grown = _spy_growth(monkeypatch, only=base)
        w = transform_gauge(transform_gauge(base, G_C), ROT)
        g = _product_matrix(G_C, ROT)
        for J, K in product(words_upto(2, 3), repeat=2):
            assert w.moment(J, K) == _expanded_moment(base, g, J, K), (J, K)
        assert grown == []

    def test_an_exact_twist_of_the_lazy_shift_state_reads_qqi(self):
        w = transform_gauge(self.VECTOR_BASES["lazy_shift"](), G_C)
        assert w.exact
        assert all(isinstance(w.moment(J, K), QQi) for J, K in product(words_upto(2, 3), repeat=2))

    def test_twist_of_an_induced_product_never_grows_its_base(self, monkeypatch):
        import cuntzlab.classify as classify

        grown = _spy_growth(monkeypatch)
        base = make_induced_product([Z35], [Z35I, [q(0), q(1)]], 2)
        w = transform_gauge(base, G_C)
        for J, K in product(words_upto(2, 3), repeat=2):
            w.moment(J, K)
        assert classify.cdim(w, 4).value == 5
        assert base not in grown and w in grown

    def test_a_base_that_breaks_the_row_relation_is_refused(self):
        # omega(I) = 1 and every other moment 0, and so for its twist: the growth
        # stops at d = 1 with A_1 = A_2 = 0, so sum_i A_i^H G A_i = 0, not G.
        # The twist is built without a growth; its presentation refuses it.
        from cuntzlab import extract_fcs

        base = MomentFunctional(2, "bogus", lambda J, K: QQi(1) if J == K == () else QQi(0))
        w = transform_gauge(base, ROT)
        with pytest.raises(ValidationFailed, match="row relation"):
            extract_fcs(w)

    def test_a_long_moment_reads_few_base_moments(self, monkeypatch):
        base = make_sub_cuntz(3, {(1, 1, 2): q(1)}, 2)
        reads = []
        moment = VectorModel.moment

        def spy(model, J, K=()):
            if model is base.model:
                reads.append((J, K))
            return moment(model, J, K)

        monkeypatch.setattr(VectorModel, "moment", spy)
        w = transform_gauge(base, ROT)
        w.moment((1, 2) * 4, (2, 1, 1) * 2 + (2, 2))
        # the expansion would read up to 2^16 base moments; the twist steps the
        # base's suffix model and reads none
        assert reads == []


GOLDEN_SPECS = Path(__file__).parent / "golden" / "specs"
CODE_FAMILIES = ("cuntz", "sub_cuntz", "geometric_progression", "prefix_code")
CODE_SPECS = sorted(p.stem for p in GOLDEN_SPECS.glob("*.json")
                    if json.loads(p.read_text(encoding="utf-8"))["family"] in CODE_FAMILIES)


def _peeled_moment(z, table, J, K):
    """omega(s_J s_K*) of the state fixed by u = sum_W z_W s_W, by the
    fixed-point rules alone: pi(s_W)* Omega = z_W Omega for a code word W,
    pi(s_K)* Omega = sum_{V > K} z_V pi(s_{V - K}) Omega when no code word
    starts K, and omega(s_C) = conj(z_W) omega(s_{C - W}) past the table."""
    longest = max(map(len, z))

    def head(X):
        return next((W for W in z if X[:len(W)] == W), None)

    def creation(C):
        if len(C) <= longest:
            return table[C]
        W = head(C)
        return conj(z[W]) * creation(C[len(W):]) if W else 0

    W = head(K)
    if W:
        return z[W] * _peeled_moment(z, table, J, K[len(W):])
    if not K:
        return creation(J)
    return sum((c * creation(J + V[len(K):]) for V, c in z.items() if len(V) > len(K) and V[:len(K)] == K), 0)


class TestFamilyModels:
    """Each family's own model against an oracle that uses no model."""

    @pytest.mark.parametrize("name", CODE_SPECS)
    def test_suffix_model_matches_the_peel(self, name, no_word_model):
        w = parse_spec(str(GOLDEN_SPECS / f"{name}.json"))
        z = {W: c for (W, _), c in w.facts.minimal_isometry.terms.items()}
        table = solve_low_moments(list(z), z, w.n).table
        pairs = list(product(words_upto(w.n, 3), repeat=2)) + [((1, 2) * 4, (2, 1, 1) * 2), ((2,) * 7, (1,) * 5)]
        for J, K in pairs:
            assert w.moment(J, K) == _peeled_moment(z, table, J, K), (J, K)

    @pytest.mark.parametrize("name", ["mixture", "sandwich_mixture"])
    def test_mixture_model_sums_its_components(self, name, no_word_model):
        parts = {
            "mixture": ([make_cuntz([q(1), q(0)]), make_cuntz(Z35I)], [fr(1, 3), fr(2, 3)]),
            "sandwich_mixture": ([make_prefix_code_state([(1, 1, 2)], [q(1)], 2),
                                  transform_sandwich(make_cuntz(Z35), [(q(0, 1), gen(2, 2))]),
                                  make_split_series_sandwich()], [q(fr(1, 2)), q(fr(1, 4)), q(fr(1, 4))]),
        }[name]
        m = make_mixture(*parts)
        for J, K in product(words_upto(2, 3), repeat=2):
            assert m.moment(J, K) == sum((c * s.moment(J, K) for s, c in zip(*parts)), 0), (J, K)

    SANDWICH_BASES = {
        "prefix_code": lambda: make_prefix_code_state([(1, 1), (1, 2), (2,)], [q(fr(2, 3)), q(fr(1, 3)), q(0, fr(2, 3))], 2),
        "shift": lambda: vector_state(ShiftRepresentation(EventuallyPeriodicWord((1,), (1, 2), 2)),
                                      EventuallyPeriodicWord((1,), (1, 2), 2)),
        "twist": lambda: transform_gauge(make_sub_cuntz(2, {(1, 2): q(1)}, 2), G_C),
        "mixture": lambda: make_mixture([make_cuntz(Z35), make_induced_product([Z35], [Z35I], 2)], [fr(1, 2), fr(1, 2)]),
        "series": make_split_series_sandwich,
    }

    @pytest.mark.parametrize("name", sorted(SANDWICH_BASES))
    def test_sandwich_model_matches_the_multiplied_out_product(self, name, no_word_model):
        # A = s_21 s_1* + i s_122 s_2*: A* A = s_1 s_1* + s_2 s_2* = I, so the mass is 1
        # over every base, and the keys 21 and 122 have different lengths
        base = self.SANDWICH_BASES[name]()
        A = monomial(2, (2, 1), (1,)) + monomial(2, (1, 2, 2), (2,), q(0, 1))
        w = transform_sandwich(base, [(1, A)])
        for J, K in product(words_upto(2, 3), repeat=2):
            want = base.moment_of_element(multiply(multiply(adjoint(A), monomial(2, J, K)), A))
            assert w.moment(J, K) == want, (J, K)


# one instance of each immutable record type, keyed by its class name,
# read off or made beside the Cuntz state w
_RECORDS = {
    "StateFacts": lambda w: w.facts,
    "GramGrowth": lambda w: gram_growth(w, 2),
    "CdimResult": lambda w: cdim(w, 2),
    "Minimal": lambda w: Minimal(monomial(2, (), ())),
    "ProperlyInfinite": lambda w: ProperlyInfinite(None, 4, "evidence"),
    "ShiftPeriod": lambda w: ShiftPeriod(2),
    "EquivalentToCuntz": lambda w: kappa(w).certificate,
    "LowerBoundOnly": lambda w: LowerBoundOnly(1, level=3),
    "PropInfCheck": lambda w: PropInfCheck(False, "failed", (), 0),
    "PurityDecision": pure,
    "EquivDecision": lambda w: equivalent(w, w),
    "FCSPresentation": extract_fcs,
}


class TestStateFacts:
    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_record_is_frozen(self, name):
        record = _RECORDS[name](make_cuntz(Z35))
        assert type(record).__name__ == name
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_cuntz_state_facts(self):
        f = make_cuntz([q(0), q(1)]).facts
        assert f.cuntz == ((0, 1), "family")
        assert f.tail_class.per == (2,) and f.tail_class.pre == ()
        assert f.tensor == (1, {(1,): 0, (2,): 1})

    def test_hat_parameter_gives_the_cuntz_parameter(self):
        z = hat_parameter(Z35, 2)
        f = make_geometric_progression(2, z, 2).facts
        assert f.cuntz == (tuple(Z35), "family")
        assert f.progression == (2, tuple(z))

    def test_gauge_twist_inherits_only_parameter_and_purity(self):
        base = make_sub_cuntz(2, {(1, 2): 1}, 2)
        assert base.facts.tail_class is not None and base.facts.tensor is not None
        g = ((q(1), q(0)), (q(0), q(0, 1)))
        f = transform_gauge(base, g).facts
        assert f.twist == (base, g)
        assert (f.cuntz, f.tail_class, f.tensor, f.progression, f.minimal_isometry) == (None,) * 5
        assert f.purity[0] == "Pure"

    def test_gauge_moves_the_cuntz_parameter_by_the_adjoint(self):
        swap = [[q(0), q(1)], [q(1), q(0)]]
        f = transform_gauge(make_cuntz(Z35), swap).facts
        assert f.cuntz == ((fr(4, 5), fr(3, 5)), "family")


# two states on the prefix code {11, 12, 2}: tails((1,)) holds two words in
# the first; the second leaves 12 out of the support
CODE_11_12_2 = {(1, 1): q(fr(3, 5)), (1, 2): q(0, fr(12, 25)), (2,): q(fr(16, 25))}
CODE_11_2 = {(1, 1): q(fr(3, 5)), (1, 2): q(0), (2,): q(0, fr(4, 5))}


def _code_states():
    return [make_prefix_code_state(list(z), z, 2) for z in (CODE_11_12_2, CODE_11_2)]


class TestStructureIdentities:
    FAMILIES = None

    def _families(self):
        return [
            make_cuntz(Z35),
            make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2),
            *_code_states(),
            make_induced_product([], [Z35, [q(0), q(1)]], 2),
            make_split_series_sandwich(),
            make_mixture(
                [make_cuntz([q(1), q(0)]), make_cuntz([q(0), q(1)])],
                [fr(1, 2), fr(1, 2)],
            ),
        ]

    def test_hermitian_symmetry(self):
        from cuntzlab.scalars import conj

        for w in self._families():
            for J in words_upto(2, 2):
                for K in words_upto(2, 2):
                    assert w.moment(K, J) == conj(w.moment(J, K)), (w.family, J, K)

    def test_row_consistency(self):
        # omega(s_J s_K*) = sum_i omega(s_Ji s_Ki*)
        for w in self._families():
            for J in words_upto(2, 2):
                for K in words_upto(2, 2):
                    total = sum(
                        (w.moment(J + (i,), K + (i,)) for i in (1, 2)),
                        start=QQi(0, 0) * 0,
                    )
                    assert total == w.moment(J, K), (w.family, J, K)

    def test_level_two_positivity(self):
        for w in self._families():
            ok, _ = positivity_check(w, level=2)
            assert ok, w.family


class TestPrefixCodeLookup:
    def test_lookup_matches_prefix_scans(self):
        for support in ([(2,), (1, 1), (1, 2)], [(2,), (1, 1)], [(1, 2)]):
            head, tails = _code_lookup(support)
            for X in words_upto(2, 4):
                heads = [W for W in support if is_prefix(W, X)]
                assert head(X) == (heads[0] if heads else None), (support, X)
                assert list(tails(X)) == [W for W in support if W != X and is_prefix(X, W)], (support, X)

    @pytest.mark.parametrize("which", ["code_11_12_2", "code_11_2", "tensor_square"])
    def test_fixed_by_minimal_isometry(self, which):
        # omega(u* s_J s_K* u) = omega(s_J s_K*), the defining fixed-point property,
        # evaluated through normal-form products
        if which == "tensor_square":
            w = make_sub_cuntz(2, {(i, j): Z35I[i - 1] * Z35I[j - 1] for i in (1, 2) for j in (1, 2)}, 2)
            assert w.facts.solution_dim > 1  # the sandwich rows and the min-norm table
        else:
            w = _code_states()[0 if which == "code_11_12_2" else 1]
        u = w.facts.minimal_isometry
        for J in words_upto(2, 2):
            for K in words_upto(2, 2):
                x = multiply(multiply(adjoint(u), monomial(2, J, K)), u)
                assert w.moment_of_element(x) == w.moment(J, K), (which, J, K)


class TestLongWords:
    # on the code {11: 3/5, 12: 0, 2: 4/5} a run of 6000 ones peels 3000 code words
    CODE = {(1, 1): q(fr(3, 5)), (1, 2): q(0), (2,): q(fr(4, 5))}

    def test_creation_and_annihilation_side_do_not_recurse(self):
        w = make_prefix_code_state(list(self.CODE), self.CODE, 2)
        expected = QQi(Fraction(3, 5) ** 3000)
        assert w.moment((1,) * 6000) == expected
        assert w.moment((), (1,) * 6000) == expected
        # omega(s_2 s_1^6000 s_2*) = z_2 conj(z_2) omega(s_1^6000)
        assert w.moment((2,) + (1,) * 6000, (2,)) == expected * fr(16, 25)


class TestWordModelInner:
    """The word model's inner product omega(x y*) of creation-span x, y,
    the double sum over their words, against the multiplied-out product."""

    X = {(): q(1), (1,): q(2), (1, 2): q(0, 1), (2, 2, 1): q(fr(1, 3), -1)}
    Y = {(2,): q(1, 1), (1, 1): q(-1), (2, 1, 2): q(fr(2, 7))}

    @pytest.mark.parametrize("which", ["cuntz", "induced_product", "prefix_code"])
    def test_matches_normal_form_product(self, which):
        w = {
            "cuntz": lambda: make_cuntz(Z35),
            "induced_product": lambda: make_induced_product([Z35], [[q(0), q(1)], Z35I], 2),
            "prefix_code": lambda: _code_states()[0],
        }[which]()
        for x in (self.X, self.Y):
            for y in (self.X, self.Y):
                elem = multiply(CuntzElement(2, {(J, ()): c for J, c in x.items()}),
                                adjoint(CuntzElement(2, {(K, ()): c for K, c in y.items()})))
                assert word_model(w.model, {}).inner(x, y) == w.moment_of_element(elem), which


def _dense_unit(seed, count, moduli, denom, extra=()):
    """``count`` Gaussian rationals (a + bi) / denom: each (a, b) is one of
    ``moduli`` (or, for the first entries, ``extra``) times a random unit
    power of i, in shuffled order; the moduli are chosen so that the vector is
    a unit.  Returns the exact entries and their float renderings, which are
    inexact in binary."""
    rng = random.Random(seed)
    parts = list(extra) + [rng.choice(moduli) for _ in range(count - len(extra))]
    rng.shuffle(parts)
    z = []
    for a, b in parts:
        for _ in range(rng.randrange(4)):
            a, b = -b, a
        z.append(QQi(Fraction(a, denom), Fraction(b, denom)))
    assert sum(x.abs2() for x in z) == 1
    return z, [complex(x) for x in z]


class TestSolver:
    # n = 2, m = 5: 32 entries of |c|^2 = 50 over 40^2; n = 3, m = 3: 26 entries
    # of |c|^2 = 25 and one of 250 over 30^2
    DENSE = {
        "n2_m5": (2, 5, ((1, 7), (7, 1), (5, 5)), 40, ()),
        "n3_m3": (3, 3, ((3, 4), (4, 3), (5, 0)), 30, ((15, 5),)),
    }

    @pytest.mark.parametrize("name", sorted(DENSE))
    def test_dense_float_moments_match_exact(self, name):
        n, m, moduli, denom, extra = self.DENSE[name]
        z, zf = _dense_unit(m, n**m, moduli, denom, extra)
        w, wf = make_sub_cuntz(m, z, n), make_sub_cuntz(m, zf, n)
        assert w.exact and not wf.exact
        assert w.facts.solution_dim == wf.facts.solution_dim == 1
        for J in words_upto(n, 3):
            for K in words_upto(n, 3):
                assert abs(wf.moment(J, K) - complex(w.moment(J, K))) < 1e-12, (J, K)

    def test_long_uniform_word_is_classified_without_listing_words(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("all_words called")

        full = set(all_words(2, 3))
        monkeypatch.setattr(moments_mod, "all_words", refuse)
        assert moments_mod._detect_code_family({(1,) * 30}, 2) == ("prefix_code", None)
        assert moments_mod._detect_code_family(full, 2) == ("sub_cuntz", 3)
        assert moments_mod._detect_code_family(full - {(2, 2, 2)}, 2) == ("prefix_code", None)

    def test_pinned_moments_reported(self):
        sol = solve_low_moments([(1, 2)], {(1, 2): 1}, 2)
        assert sol.solution_dim == 1

    def test_inconsistent_coefficients_rejected(self):
        # norm > 1 on the code cannot extend to a state
        with pytest.raises(NotUnit):
            solve_low_moments([(1, 2)], {(1, 2): 2}, 2)


class Reference(NamedTuple):
    table: dict
    solution_dim: int
    warnings: list
    words: list  # the table words; word i holds columns 2i (real part) and 2i + 1 (imaginary part)
    sandwich_rows: list  # dense rows of omega(u* s_C u) = omega(s_C), two per table word C


def reference_low_moments(P, z, n, mode="exact"):
    """The fixed-point solve as it was before the sandwich rows were found to
    follow from the fixed-point rows: every code word is an unknown as well
    (its equation v_W = conj(z_W) v_empty is solved for, not read from the
    spec), and when the fixed-point kernel has more than one vector the
    sandwich rows omega(u* s_C u) = omega(s_C) of every table word C are added
    and the whole system is reduced a second time.  z is exact; in float mode
    the system is built on its float rendering.  A kernel of more than one
    vector gives the minimum-norm table on v_empty = 1: in exact mode sympy's
    (``min_norm_oracle``), in float mode the exact twin's, as complex."""
    pc = moments_mod._read_code(P, z if mode == "exact" else [complex(c) for c in z], n)
    moments_mod.check_unit([pc.z[w] for w in pc.code])
    zmap, M, head, tails = pc.z, pc.max_len, pc.head, pc.tails
    table_words = list(words_upto(pc.n, M))
    index = {w: i for i, w in enumerate(table_words)}
    width = 2 * len(table_words)

    def add(acc, expr, c, conjugated=False):
        # acc += c * expr, or c * conj(expr), over expressions {(word, conjugated): coefficient}
        for (w, f), v in expr.items():
            key = (w, f != conjugated)
            acc[key] = acc.get(key, 0) + c * (conj(v) if conjugated else v)

    def creation_expr(C):
        if len(C) <= M:
            return {(C, False): 1}
        expr, W = {}, head(C)
        if W is not None:
            add(expr, creation_expr(C[len(W):]), conj(zmap[W]))
        return expr

    def equation(C, peeled):
        row = {(C, False): 1}
        for D, c in peeled:
            W = head(D)
            if W is not None:
                add(row, creation_expr(D[len(W):]), -c * conj(zmap[W]))
            for W in tails(D):
                add(row, creation_expr(W[len(D):]), -c * conj(zmap[W]), conjugated=True)
        re, im = [0] * width, [0] * width
        for (w, conjugated), c in row.items():
            if pc.exact:
                a, b, d = gaussian_parts(c)
                a, b = Fraction(a, d), Fraction(b, d)
            else:
                a, b = complex(c).real, complex(c).imag
            i = 2 * index[w]
            re[i] += a
            im[i] += b
            re[i + 1] += b if conjugated else -b
            im[i + 1] += -a if conjugated else a
        return [re, im]

    rows = [r for C in table_words for r in equation(C, [(C, 1)])]
    sandwich = [r for C in table_words for r in equation(C, [(C + B, zmap[B]) for B in pc.support])]
    kernel = kernel_basis(rows, width)
    if len(kernel) > 1:
        kernel = kernel_basis(rows + sandwich, width)
    dim, warnings = len(kernel), []
    if dim > 1:
        warnings.append(f"solution space has dimension {dim}; returning the symmetric minimum-norm table")
        if mode == "float":
            table = {w: complex(v) for w, v in reference_low_moments(P, z, n).table.items()}
            return Reference(table, dim, warnings, table_words, sandwich)
        vec = [x.re for x in min_norm_oracle(kernel, [[int(j == 0) for j in range(width)],
                                                      [int(j == 1) for j in range(width)]], [1, 0])]
    else:
        vec = kernel[0]
    scalar = QQi if pc.exact else complex
    v0 = scalar(vec[0], vec[1])
    table = {w: scalar(vec[2 * i], vec[2 * i + 1]) / v0 for w, i in index.items()}
    return Reference(table, dim, warnings, table_words, sandwich)


def _tensor_power(p):
    zz = {}
    for J in product((1, 2), repeat=p):
        v = q(1)
        for a in J:
            v = v * Z35[a - 1]
        zz[J] = v
    return list(zz), list(zz.values()), 2


def _uniform(n, m, seed, moduli, denom, extra=()):
    return list(all_words(n, m)), _dense_unit(seed, n**m, moduli, denom, extra)[0], n


FIVES = ((3, 4), (4, 3), (5, 0))
# each exact case: (code, coefficients, n); every coefficient vector is a unit
ORACLE_CASES = {
    "uniform_n2_m2": _uniform(2, 2, 1, FIVES, 10),
    "uniform_n2_m3": _uniform(2, 3, 2, FIVES, 15, ((5, 5),)),
    "uniform_n2_m4": _uniform(2, 4, 3, FIVES, 20),
    "uniform_n2_m5": _uniform(2, 5, 5, ((1, 7), (7, 1), (5, 5)), 40),
    "uniform_n3_m3": _uniform(3, 3, 3, FIVES, 30, ((15, 5),)),
    "uniform_zeros": (list(all_words(2, 2)), [q(fr(3, 5)), q(0), q(fr(4, 5)), q(0)], 2),
    "progression_hat": (moments_mod._progression_code(2, 2), hat_parameter(Z35, 2), 2),
    "progression_generic": (moments_mod._progression_code(2, 2), [q(fr(3, 5)), q(0), q(fr(4, 5))], 2),
    "progression_open": (moments_mod._progression_code(2, 2), [q(0), q(0), q(1)], 2),
    "progression_k3_n3": (moments_mod._progression_code(3, 3),
                          [q(fr(1, 7)), q(fr(2, 7)), q(0, fr(2, 7)), q(0), q(fr(-2, 7)), q(0), q(fr(6, 7))], 3),
    "suffix_2_11_12": ([(2,), (1, 1), (1, 2)], [q(fr(2, 3)), q(fr(1, 3)), q(0, fr(2, 3))], 2),
    "suffix_1_21_22": ([(1,), (2, 1), (2, 2)], [q(fr(2, 3)), q(0, fr(-1, 3)), q(fr(2, 3))], 2),
    "suffix_zero": ([(2,), (1, 1), (1, 2)], [q(0), q(fr(3, 5)), q(0, fr(4, 5))], 2),
    "one_word_1x4": ([(1,) * 4], [q(1)], 2),
    "word_123": ([(1, 2, 3)], [q(0, 1)], 3),
    "tensor_square": _tensor_power(2),
    "tensor_cube": _tensor_power(3),
}


class TestGivenCodeWordMoments:
    """The solve reads each code word's moment from the spec; the former full
    system, which solved for it, gives the same tables, dimensions and warnings."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_exact_solve_matches_the_full_system(self, name):
        P, z, n = ORACLE_CASES[name]
        sol = solve_low_moments(P, z, n)
        table, dim, warnings, *_ = reference_low_moments(P, z, n)
        assert (sol.solution_dim, sol.warnings) == (dim, warnings)
        assert list(sol.table) == list(table)
        for w, v in table.items():
            assert type(sol.table[w]) is QQi and sol.table[w] == v, w
        for W, c in zip(P, z):
            assert sol.table[W] == conj(c), W

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_float_solve_matches_the_full_system(self, name):
        P, z, n = ORACLE_CASES[name]
        zf = [complex(c) for c in z]
        sol = solve_low_moments(P, zf, n)
        table, dim, warnings, *_ = reference_low_moments(P, z, n, "float")
        assert (sol.solution_dim, sol.warnings) == (dim, warnings)
        assert list(sol.table) == list(table)
        for w, v in table.items():
            assert type(sol.table[w]) is complex and abs(sol.table[w] - v) < 1e-12, w
        for W, c in zip(P, zf):
            assert sol.table[W] == c.conjugate(), W

    def test_some_cases_are_underdetermined(self):
        dims = {name: reference_low_moments(*case).solution_dim for name, case in ORACLE_CASES.items()}
        assert {name: d for name, d in dims.items() if d > 1} == {
            "progression_open": 2, "one_word_1x4": 4, "tensor_square": 2, "tensor_cube": 3}

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_each_case_reduces_one_system(self, monkeypatch, mode):
        calls = []
        kernel_basis = moments_mod.kernel_basis

        def spy(rows, ncols):
            calls.append(ncols)
            return kernel_basis(rows, ncols)

        monkeypatch.setattr(moments_mod, "kernel_basis", spy)
        dims = {}
        for name, (P, z, n) in ORACLE_CASES.items():
            calls.clear()
            omega = make_prefix_code_state(P, z if mode == "exact" else [complex(c) for c in z], n)
            assert len(calls) == 1, name
            dims[name] = omega.facts.solution_dim
        assert [name for name, d in dims.items() if d > 1] == [
            "progression_open", "one_word_1x4", "tensor_square", "tensor_cube"]

    @settings(max_examples=40)
    @given(st.sampled_from(["tensor_square", "tensor_cube", "one_word_1x4"]), st.data())
    def test_the_table_does_not_depend_on_the_kernel_basis(self, name, data):
        # the kernel recombined by a permutation times a unit upper triangular
        # matrix times a diagonal of nonzero entries
        P, z, n = ORACLE_CASES[name]
        expected = solve_low_moments(P, z, n)
        kernel_basis = moments_mod.kernel_basis
        small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
        nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))

        def recombined(rows, ncols):
            basis = data.draw(st.permutations(kernel_basis(rows, ncols)))
            k = len(basis)
            scale = data.draw(st.lists(nonzero, min_size=k, max_size=k))
            upper = data.draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=k, max_size=k))
            return [[scale[i] * basis[i][j] + sum((upper[i][l] * basis[l][j] for l in range(i + 1, k)), 0)
                     for j in range(ncols)] for i in range(k)]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moments_mod, "kernel_basis", recombined)
            got = solve_low_moments(P, z, n)
        assert (got.table, got.solution_dim, got.warnings) == (expected.table, expected.solution_dim, expected.warnings)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_code_words_are_no_columns(self, monkeypatch, mode):
        # the dense order-7 state over two letters: 255 table words, 128 of them code words
        widths, blocks = [], []
        kernel_basis, column_blocks = moments_mod.kernel_basis, linalg_mod._column_blocks

        def spy_kernel(rows, ncols):
            widths.append(ncols)
            return kernel_basis(rows, ncols)

        def spy_blocks(rows, ncols):
            found = column_blocks(rows, ncols)
            blocks.extend(len(cols) for cols, _ in found)
            return found

        monkeypatch.setattr(moments_mod, "kernel_basis", spy_kernel)
        monkeypatch.setattr(linalg_mod, "_column_blocks", spy_blocks)
        z, zf = _dense_unit(7, 128, ((1, 7), (7, 1), (5, 5)), 80)
        w = make_sub_cuntz(7, z if mode == "exact" else zf, 2)
        assert w.facts.solution_dim == 1
        assert widths == [2 * (255 - 128)]
        # lengths 1 + 6, 2 + 5 and 3 + 4, then the two columns of v_empty
        assert max(blocks) == 132 and sorted(blocks, reverse=True)[:3] == [132, 72, 48]
        assert sum(blocks) == 254

    def test_an_empty_code_or_word_is_refused(self):
        for n in (None, 2):
            with pytest.raises(SchemaError, match="a prefix code needs at least one word"):
                solve_low_moments([], [], n)
            with pytest.raises(SchemaError, match="a prefix code needs at least one word"):
                make_prefix_code_state([], [], n)
            # the default alphabet used to take max() over the empty word's letters
            for P in ([()], [(), (1,)]):
                with pytest.raises(EmptyWord):
                    solve_low_moments(P, [1] * len(P), n)


# (a, b) with a^2 + b^2 = 1: a split of one coefficient c into (c a, c b) keeps the norm
CIRCLE = [(fr(3, 5), fr(4, 5)), (fr(5, 13), fr(12, 13)), (fr(8, 17), fr(15, 17)), (1, 0)]
PHASES = [q(1), q(0, 1), q(-1), q(0, -1), q(fr(3, 5), fr(4, 5)), q(fr(5, 13), fr(-12, 13))]


@st.composite
def unit_vectors(draw, size):
    """``size`` Gaussian rationals of norm 1, some of them 0: one coefficient
    split ``size - 1`` times along CIRCLE, each part turned by a phase."""
    v = [q(1)]
    while len(v) < size:
        i = draw(st.integers(0, len(v) - 1))
        a, b = draw(st.sampled_from(CIRCLE))
        v[i:i + 1] = [v[i] * a, v[i] * b]
    return draw(st.permutations([c * draw(st.sampled_from(PHASES)) for c in v]))


@st.composite
def uniform_codes(draw):
    n = draw(st.integers(2, 3))
    P = list(all_words(n, draw(st.integers(1, 3 if n == 2 else 2))))
    return P, draw(unit_vectors(len(P))), n


@st.composite
def progression_codes(draw):
    n, k = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    P = moments_mod._progression_code(k, n)
    return P, draw(unit_vectors(len(P))), n


@st.composite
def incomplete_codes(draw):
    """Some leaves of a tree grown from the empty word by splitting a drawn
    leaf into its n children, to depth 3."""
    n, leaves = draw(st.integers(2, 3)), [()]
    for _ in range(draw(st.integers(1, 4))):
        growing = [w for w in leaves if len(w) < 3]
        if growing:
            w = draw(st.sampled_from(growing))
            leaves.remove(w)
            leaves += [w + (a,) for a in range(1, n + 1)]
    P = draw(st.lists(st.sampled_from(sorted(leaves)), min_size=1, unique=True))
    return P, draw(unit_vectors(len(P))), n


@st.composite
def tensor_powers(draw):
    n, p = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    x = draw(unit_vectors(n))
    P = list(all_words(n, p))
    z = []
    for W in P:
        c = q(1)
        for a in W:
            c = c * x[a - 1]
        z.append(c)
    return P, z, n


@st.composite
def one_word_powers(draw):
    n = draw(st.integers(2, 3))
    a = tuple(draw(st.lists(st.integers(1, n), min_size=1, max_size=2)))
    return [a * draw(st.integers(2, 4 // len(a)))], [draw(st.sampled_from(PHASES))], n


@pytest.mark.parametrize("mode", ["exact", "float"])
@settings(max_examples=100)
@given(case=st.one_of(uniform_codes(), progression_codes(), incomplete_codes(), tensor_powers(), one_word_powers()))
def test_the_sandwich_rows_follow_from_the_fixed_point_rows(mode, case):
    """Every fixed-point kernel vector has Im v_empty = 0, every sandwich row
    of the former solve vanishes on it, and the table, its dimension and its
    warnings are the former solve's (see ``moments._solve_low_moments``)."""
    P, z, n = case
    exact = mode == "exact"
    zz = z if exact else [complex(c) for c in z]
    kernels = []
    kernel_basis = moments_mod.kernel_basis

    def spy(rows, ncols):
        kernels.append(kernel_basis(rows, ncols))
        return kernels[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments_mod, "kernel_basis", spy)
        sol = solve_low_moments(P, zz, n)
    ref = reference_low_moments(P, z, n, mode)
    (kernel,) = kernels
    code = dict(zip(P, zz))
    unknowns = [w for w in ref.words if w not in code]
    for v in kernel:
        assert v[1] == 0
        # the kernel vector over the former columns: a code word's v_W is conj(z_W) v_empty
        values = dict(zip(unknowns, (complex(x, y) if not exact else QQi(x, y) for x, y in zip(v[::2], v[1::2]))))
        full = []
        for w in ref.words:
            c = values[w] if w in values else conj(code[w]) * values[()]
            full += [c.real, c.imag] if not exact else [c.re, c.im]
        for row in ref.sandwich_rows:
            residual = sum(x * y for x, y in zip(row, full) if x)
            assert residual == 0 if exact else abs(residual) < 1e-9
    assert (sol.solution_dim, sol.warnings) == (ref.solution_dim, ref.warnings)
    assert list(sol.table) == list(ref.table)
    for w, v in ref.table.items():
        assert sol.table[w] == v if exact else abs(sol.table[w] - v) < 1e-12, w


# the complex unitary of the golden twist tests, as spec entries, block-extended by 1 on n = 3
G_C_SPEC = {
    2: [[["3/5", 0], [0, "4/5"]], [[0, "4/5"], ["3/5", 0]]],
    3: [[["3/5", 0], [0, "4/5"], 0], [[0, "4/5"], ["3/5", 0], 0], [0, 0, 1]],
}


class TestHalfGram:
    """``model.gram(rows)`` computes the inner products on and above the
    diagonal and fills each entry below it with the conjugate of its mirror,
    or with the mirror itself where that is its own conjugate (an int,
    Fraction, float or real QQi): the full Gram matrix, entry for entry and
    type for type.  Floats compare with ==, so no rounding apart; only the
    sign of a zero imaginary part is not compared (the conjugate of x + 0j
    is x - 0j, and printing drops the sign of a zero)."""

    @staticmethod
    def _assert_half_is_full(omega):
        for words in (list(words_upto(omega.n, 2)), list(gram_growth(omega).pivots)):
            model = omega.model
            half, full = model.gram(words), [[model.moment(J, K) for K in words] for J in words]
            for i, (row, want_row) in enumerate(zip(half, full)):
                assert len(row) == len(words)
                for j, (x, want) in enumerate(zip(row, want_row)):
                    assert x == want and type(x) is type(want), (words[i], words[j], x, want)
                    if j < i and (type(x) in (int, Fraction, float) or type(x) is QQi and x.im == 0):
                        assert x is half[j][i], (words[i], words[j])

    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN_SPECS.glob("*.json")))
    def test_exact_golden_states_and_their_twists(self, name):
        spec = json.loads((GOLDEN_SPECS / f"{name}.json").read_text(encoding="utf-8"))
        omega = state_from_spec(spec)
        self._assert_half_is_full(omega)
        self._assert_half_is_full(state_from_spec({"family": "gauge", "base": spec, "g": G_C_SPEC[omega.n]}))

    @pytest.mark.parametrize("seed", [1, 99])
    def test_float_states_of_the_benchmark(self, seed, bench_corpus):
        specs = bench_corpus.build("report_float", seed).specs
        assert len(specs) > 16
        for spec in specs.values():
            self._assert_half_is_full(state_from_spec(spec, "float"))

    def test_inner_products_on_and_above_the_diagonal_only(self):
        model = make_cuntz(Z35I).model
        inner, pairs = model.inner, []

        def spy(x, y):
            pairs.append((x, y))
            return inner(x, y)

        model.inner = spy
        words = list(words_upto(2, 2))
        G = model.gram(words)
        assert len(pairs) == len(words) * (len(words) + 1) // 2 == 28
        model.inner = inner
        assert G == [[model.moment(J, K) for K in words] for J in words]
