"""Symbolic *-algebra on n isometries with the row relation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuntzlab import (
    CuntzElement,
    QQi,
    adjoint,
    gauge_apply,
    gen,
    identity,
    monomial,
    multiply,
)
from cuntzlab.errors import NotUnitary, SchemaError
from cuntzlab.specio import state_from_spec
from cuntzlab.symalg import is_isometry_in_plus

from conftest import fr, q


def reference_multiply(x: CuntzElement, y: CuntzElement) -> CuntzElement:
    """The product over every pair of terms: (s_J s_K*)(s_L s_M*) is
    s_(J.C) s_M* when L = K.C, s_J s_(M.C)* when K = L.C, and 0 otherwise."""
    raw = {}
    for (J, K), cx in x.terms.items():
        for (L, M), cy in y.terms.items():
            if L[:len(K)] == K:
                key = (J + L[len(K):], M)
            elif K[:len(L)] == L:
                key = (J, M + K[len(L):])
            else:
                continue
            raw[key] = raw.get(key, 0) + cx * cy
    return CuntzElement(x.n, raw)


_small = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4))
_exact_coefficients = st.one_of(st.integers(-3, 3).filter(bool), st.builds(QQi, _small, _small))
_float_coefficients = st.builds(lambda a, b: complex(a / 7, b / 3), st.integers(-9, 9).filter(bool),
                                st.integers(-9, 9))


@st.composite
def factor_pairs(draw, coefficients):
    """(x, y) over n = 2 or 3 whose inner words meet in every way: each L of
    y extends a K of x, is a proper prefix of one, equals one, or is drawn
    on its own; empty words included."""
    n = draw(st.sampled_from([2, 3]))
    word = st.lists(st.integers(1, n), max_size=3).map(tuple)
    x = draw(st.dictionaries(st.tuples(word, word), coefficients, min_size=1, max_size=5))
    inner = [K for _, K in x]
    y = {}
    for _ in range(draw(st.integers(1, 7))):
        K = draw(st.sampled_from(inner))
        kind = draw(st.sampled_from(["extends", "proper_prefix", "equal", "unrelated"]))
        if kind == "extends":
            L = K + draw(word)
        elif kind == "proper_prefix":
            L = K[:draw(st.integers(0, max(len(K) - 1, 0)))]
        elif kind == "equal":
            L = K
        else:
            L = draw(word)
        y[(L, draw(word))] = draw(coefficients)
    return CuntzElement(n, x), CuntzElement(n, y)


class TestIndexedProduct:
    """``multiply`` looks up only the terms whose inner words meet; the
    all-pairs loop above is its oracle."""

    @given(factor_pairs(_exact_coefficients))
    def test_equals_the_all_pairs_product(self, pair):
        x, y = pair
        assert multiply(x, y) == reference_multiply(x, y)

    @given(factor_pairs(_float_coefficients))
    def test_float_products_sum_in_the_all_pairs_order(self, pair):
        # the same terms, summed in the same order, give the same floats
        x, y = pair
        assert list(multiply(x, y).terms.items()) == list(reference_multiply(x, y).terms.items())

    def test_each_way_two_inner_words_meet(self):
        # x = s_1 s_12*; y's L: 12 (equal), 121 (extends), 1 and () (proper prefixes), 2 (unrelated)
        x = monomial(2, (1,), (1, 2))
        y = CuntzElement(2, {((1, 2), (1,)): 1, ((1, 2, 1), ()): 2, ((1,), (2,)): 3, ((), (1, 1)): 5,
                             ((2,), ()): 7})
        assert multiply(x, y) == reference_multiply(x, y) == CuntzElement(
            2, {((1,), (1,)): 1, ((1, 1), ()): 2, ((1,), (2, 2)): 3, ((1,), (1, 1, 1, 2)): 5})


class TestIsometryCheck:
    """u*u = I on the dense isometries of the heavy report_float states (128,
    64 and 81 creation terms), and not once one coefficient moves."""

    @pytest.mark.parametrize("name", ["n2_heavy_dense_m6", "n2_heavy_dense_m7", "n3_heavy_dense_m4"])
    @pytest.mark.parametrize("mode", ["float", "auto"])
    def test_dense_isometries(self, bench_corpus, name, mode):
        n, m, z = bench_corpus.heavy_float()[name]
        u = state_from_spec(bench_corpus.sub_cuntz(n, m, z, exact=mode == "auto"), mode).facts.minimal_isometry
        assert len(u.terms) == n**m
        assert is_isometry_in_plus(u) == (True, True)
        terms = dict(u.terms)
        key = next(iter(terms))
        terms[key] += Fraction(1, 1000)
        assert is_isometry_in_plus(CuntzElement(n, terms)) == (False, True)


class TestRelations:
    def test_isometry_relation(self):
        s1, s2 = gen(2, 1), gen(2, 2)
        assert multiply(adjoint(s1), s1) == identity(2)
        assert multiply(adjoint(s2), s2) == identity(2)

    def test_orthogonality_relation(self):
        s1, s2 = gen(2, 1), gen(2, 2)
        assert multiply(adjoint(s1), s2).is_zero()
        assert multiply(adjoint(s2), s1).is_zero()

    def test_row_relation_makes_range_projections_sum_to_identity(self):
        s1, s2 = gen(2, 1), gen(2, 2)
        p1 = multiply(s1, adjoint(s1))
        p2 = multiply(s2, adjoint(s2))
        total = p1 + p2 if hasattr(p1, "__add__") else None
        assert total == identity(2)

    def test_three_generator_relations(self):
        for i in range(1, 4):
            for j in range(1, 4):
                prod = multiply(adjoint(gen(3, i)), gen(3, j))
                if i == j:
                    assert prod == identity(3)
                else:
                    assert prod.is_zero()


class TestNormalForm:
    def test_monomials_with_shared_last_letter_are_rewritten(self):
        # s_12 s_2* = s_1 - s_11 s_1*  (eliminate terms where both sides
        # end in the last letter, so representations are unique)
        m = monomial(2, (1, 2), (2,))
        assert m.terms == {((1, 1), (1,)): -1, ((1,), ()): 1}

    def test_word_product_collapses(self):
        # s_12 s_21* . s_21 s_2* = s_12 s_2*
        x = multiply(monomial(2, (1, 2), (2, 1)), monomial(2, (2, 1), (2,)))
        assert x == monomial(2, (1, 2), (2,))

    def test_mismatched_inner_words_annihilate(self):
        x = multiply(monomial(2, (1,), (2, 1)), monomial(2, (2, 2), ()))
        assert x.is_zero()

    def test_inner_word_extends_left_factor(self):
        # s_1 s_2* . s_21 = s_1 s_1
        x = multiply(monomial(2, (1,), (2,)), monomial(2, (2, 1), ()))
        assert x == monomial(2, (1, 1), ())

    def test_equality_is_normal_form_equality(self):
        s1 = gen(2, 1)
        lhs = monomial(2, (1, 2), (2,))
        rhs_terms = multiply(
            monomial(2, (1, 2), (2, 1)), monomial(2, (2, 1), (2,))
        )
        assert lhs == rhs_terms
        assert lhs != s1


class TestAdjoint:
    def test_adjoint_swaps_words_and_conjugates(self):
        x = monomial(2, (1, 2), (2, 1), QQi(0, 1))
        assert adjoint(x).terms == {((2, 1), (1, 2)): QQi(0, -1)}

    def test_adjoint_is_involutive(self):
        x = monomial(2, (1, 2), (2,), QQi(fr(1, 2), fr(1, 3)))
        assert adjoint(adjoint(x)) == x


class TestGaugeAction:
    def test_permutation_swaps_generators(self):
        swap = [[0, 1], [1, 0]]
        assert gauge_apply(swap, gen(2, 1)) == gen(2, 2)
        assert gauge_apply(swap, gen(2, 2)) == gen(2, 1)

    def test_columns_give_images(self):
        # alpha_g(s_j) = sum_i g[i][j] s_i
        g = [
            [q(fr(3, 5)), q(fr(-4, 5))],
            [q(fr(4, 5)), q(fr(3, 5))],
        ]
        img = gauge_apply(g, gen(2, 1))
        assert img.terms == {((1,), ()): q(fr(3, 5)), ((2,), ()): q(fr(4, 5))}

    def test_action_is_a_star_homomorphism(self):
        g = [
            [q(fr(3, 5)), q(fr(-4, 5))],
            [q(fr(4, 5)), q(fr(3, 5))],
        ]
        x = monomial(2, (1,), (2,))
        lhs = gauge_apply(g, multiply(x, adjoint(x)))
        rhs = multiply(gauge_apply(g, x), adjoint(gauge_apply(g, x)))
        assert lhs == rhs

    def test_gauge_preserves_relations(self):
        g = [[q(0, 1), q(0)], [q(0), q(1)]]  # diag(i, 1)
        t1 = gauge_apply(g, gen(2, 1))
        assert multiply(adjoint(t1), t1) == identity(2)

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(NotUnitary):
            gauge_apply([[1, 0], [0, 2]], gen(2, 1))

    @pytest.mark.parametrize(
        "g, x",
        [
            ([[q(fr(3, 5)), q(0, fr(-4, 5))], [q(fr(4, 5)), q(0, fr(3, 5))]],
             monomial(2, (1, 2), (2, 1), q(fr(1, 2), fr(1, 3))) + monomial(2, (2, 2, 1), ()) + identity(2)
             + monomial(2, (), (1, 2), q(0, 2)) + monomial(2, (2,), (1, 1, 2), q(-3))),
            ([[q(fr(1, 3)), q(fr(2, 3)), q(fr(2, 3))],
              [q(fr(2, 3)), q(fr(1, 3)), q(fr(-2, 3))],
              [q(0, fr(2, 3)), q(0, fr(-2, 3)), q(0, fr(1, 3))]],
             monomial(3, (3, 1), (2,), q(fr(2, 7))) + monomial(3, (1,), (3, 3)) + monomial(3, (2, 3), (2, 3))),
        ],
        ids=["n2", "n3"],
    )
    def test_equals_products_of_generator_images(self, g, x):
        # reference: alpha_g(s_J s_K*) = alpha_g(s_j1)...alpha_g(s_jk) (alpha_g(s_K))*,
        # each generator image sum_i g[i][j] s_i, multiplied out in O_n
        n = x.n
        gens = {j: CuntzElement(n, {((i,), ()): g[i - 1][j - 1] for i in range(1, n + 1)}) for j in range(1, n + 1)}

        def image(J):
            out = identity(n)
            for a in J:
                out = multiply(out, gens[a])
            return out

        want = CuntzElement(n, {})
        for (J, K), c in x.terms.items():
            want = want + c * multiply(image(J), adjoint(image(K)))
        assert gauge_apply(g, x) == want


class TestScalarStructure:
    def test_scaling_and_addition(self):
        a = monomial(2, (1,), (), q(fr(1, 2)))
        b = monomial(2, (1,), (), q(fr(1, 2)))
        both = a + b
        assert both == gen(2, 1)

    def test_zero_coefficients_drop_out(self):
        a = monomial(2, (1,), ())
        b = monomial(2, (1,), (), -1)
        assert (a + b).is_zero()


@st.composite
def same_algebra_pairs(draw, coefficients):
    """Two drawn elements over one n = 2 or 3, and a drawn scalar."""
    n = draw(st.sampled_from([2, 3]))
    word = st.lists(st.integers(1, n), max_size=3).map(tuple)
    terms = st.dictionaries(st.tuples(word, word), coefficients, max_size=5)
    return CuntzElement(n, draw(terms)), CuntzElement(n, draw(terms)), draw(coefficients)


class TestCheckedWords:
    """Arithmetic builds its results from the already checked words of its
    operands and does not check them again; each result is the element the
    public constructor builds of the same terms, which still checks them."""

    @given(same_algebra_pairs(st.one_of(_exact_coefficients, _float_coefficients)))
    def test_each_result_is_the_publicly_built_element(self, case):
        x, y, c = case
        n = x.n
        summed = dict(x.terms)
        for key, b in y.terms.items():
            summed[key] = summed.get(key, 0) + b
        # x - y is x + (-1) y, each step built and normalized
        minus_y = CuntzElement(n, {key: -1 * b for key, b in y.terms.items()})
        differenced = dict(x.terms)
        for key, b in minus_y.terms.items():
            differenced[key] = differenced.get(key, 0) + b
        cases = [
            (x + y, CuntzElement(n, summed)),
            (x - y, CuntzElement(n, differenced)),
            (-x, CuntzElement(n, {key: -1 * a for key, a in x.terms.items()})),
            (x * c, CuntzElement(n, {key: a * c for key, a in x.terms.items()})),
            (c * x, CuntzElement(n, {key: c * a for key, a in x.terms.items()})),
            (multiply(x, y), reference_multiply(x, y)),
            (adjoint(x), CuntzElement(n, {(K, J): a.conjugate() for (J, K), a in x.terms.items()})),
        ]
        for got, want in cases:
            assert type(got) is CuntzElement and got.n == n
            # the same terms in the same order, so floats summed alike
            assert list(got.terms.items()) == list(want.terms.items())
            with pytest.raises(AttributeError):
                got.n = 5

    def test_arithmetic_checks_no_word(self, monkeypatch):
        import cuntzlab.symalg as symalg

        x = CuntzElement(2, {((1,), ()): q(fr(3, 5)), ((2,), (1,)): q(fr(4, 5))})
        y = CuntzElement(2, {((1, 2), ()): q(fr(1, 2)), ((2,), ()): q(0, 1), ((), (1,)): 3})
        checked = []
        check_word = symalg.check_word
        monkeypatch.setattr(symalg, "check_word", lambda w, n: checked.append(w) or check_word(w, n))
        for result in (multiply(x, y), x + y, x - y, -x, 2 * x, x * q(0, 1), adjoint(y)):
            assert result.terms
        assert checked == []
        CuntzElement(2, {((1, 2), (2,)): 1})
        assert checked == [(1, 2), (2,)]

    @pytest.mark.parametrize("word", [(3,), (0,), (1, -1), (True,), (1.0,), ("1",)])
    def test_the_public_constructor_still_refuses_a_bad_word(self, word):
        with pytest.raises(SchemaError, match="outside alphabet 1..2"):
            CuntzElement(2, {(word, ()): 1})
        with pytest.raises(SchemaError, match="outside alphabet 1..2"):
            CuntzElement(2, {((1,), word): 1})

    def test_the_public_constructor_still_refuses_a_small_alphabet(self):
        with pytest.raises(SchemaError, match="alphabet size must be >= 2, got 1"):
            CuntzElement(1, {})
