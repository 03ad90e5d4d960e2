"""Moment functionals: constructors, frozen values, and structure identities.

Every expected number below was computed by hand from the defining formulas
before being compared against the library.
"""

from fractions import Fraction
from itertools import product

import pytest

from cuntzlab import (
    CuntzElement,
    NotPrefixFree,
    NotUnit,
    QQi,
    SchemaError,
    TailNotCertified,
    adjoint,
    all_words,
    eval_moment,
    gen,
    gram_matrix,
    hat_parameter,
    hat_parameter_inverse,
    make_cuntz,
    make_geometric_progression,
    make_induced_product,
    make_mixture,
    make_prefix_code_state,
    make_split_series_sandwich,
    make_sub_cuntz,
    monomial,
    multiply,
    positivity_check,
    solve_low_moments,
    transform_gauge,
    transform_sandwich,
    words_upto,
)
from cuntzlab.linalg import rank
from cuntzlab.moments import _code_lookup
from cuntzlab.words import is_prefix

from conftest import fr, q

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

    def test_eval_moment_matches_method(self):
        w = make_cuntz(Z35)
        assert eval_moment(w, (1, 2), (2, 1)) == w.moment((1, 2), (2, 1))

    def test_moment_of_element_sums_terms(self):
        w = make_cuntz(Z35)
        x = multiply(monomial(2, (1, 2), (2, 1)), monomial(2, (2, 1), (2,)))
        # omega(s_12 s_2*) = conj(z_1 z_2) z_2 = 48/125
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
            eval_moment(make_cuntz(Z35), J, K)

    def test_lookup_shares_the_memo_of_moment(self):
        w = make_cuntz(Z35)
        assert w.lookup((1, 2), (2,)) == w.moment([1, 2], [2]) == fr(48, 125)
        assert list(w._memo) == [((1, 2), (2,))]

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
        # omega'(x) = sum_{l,l'} conj(c_l) c_l' omega(A_l* x A_l'), term by term
        base = make_cuntz(Z35I)
        terms = [(q(fr(1, 2)), gen(2, 1)), (q(0, fr(1, 3)), monomial(2, (2, 1), (1,))), (q(fr(-1, 4)), gen(2, 2))]
        w = transform_sandwich(base, terms, 2)  # a loose tail bound: A need not be unit
        for J, K in product(words_upto(2, 2), repeat=2):
            x = monomial(2, J, K)
            want = sum(
                (c.conjugate() * d * base.moment_of_element(multiply(multiply(adjoint(A), x), B))
                 for c, A in terms for d, B in terms),
                0,
            )
            assert w.moment(J, K) == want

    def test_truncated_sum_carries_its_error_bound(self):
        # A Omega = 3/5 s_1 Omega has norm 3/5, within 0.8 of a unit vector;
        # the error bound is 0.8^2 + 2 (3/5) 0.8 = 1.6
        w = transform_sandwich(make_cuntz([q(1), q(0)]), [(q(fr(3, 5)), gen(2, 1))], 0.8)
        assert not w.exact
        assert w.warnings == ["moments carry a truncation error of at most 1.6"]
        assert w.moment((), ()) == fr(9, 25)

    def test_truncation_beyond_the_tail_bound_is_refused(self):
        with pytest.raises(TailNotCertified):
            transform_sandwich(make_cuntz([q(1), q(0)]), [(q(fr(3, 5)), gen(2, 1))], 0.1)

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


class TestStateFacts:
    def test_record_is_frozen(self):
        from dataclasses import FrozenInstanceError

        w = make_cuntz(Z35)
        with pytest.raises(FrozenInstanceError):
            w.facts.cuntz = None

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


class TestMomentOfPair:
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
                assert w.moment_of_pair(x, y) == w.moment_of_element(elem), which


class TestSolver:
    def test_pinned_moments_reported(self):
        sol = solve_low_moments([(1, 2)], {(1, 2): 1}, 2)
        assert sol.solution_dim == 1

    def test_inconsistent_coefficients_rejected(self):
        # norm > 1 on the code cannot extend to a state
        with pytest.raises(NotUnit):
            solve_low_moments([(1, 2)], {(1, 2): 2}, 2)
