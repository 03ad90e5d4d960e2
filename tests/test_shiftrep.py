"""Exact simulator for permutative representations on shift and grid spaces."""

import pytest

from cuntzlab import (
    LAZY_PRESETS,
    EventuallyPeriodicWord,
    GridRepresentation,
    NotInvariant,
    SchemaError,
    ShiftRepresentation,
    apply_element,
    apply_generator,
    cdim,
    dhj_grading,
    gen,
    lemma_convergence_check,
    monomial,
    vector_state,
)
from cuntzlab.shiftrep import LazyWord, StateVector

from conftest import fr, q


def ep(pre, per, n=2):
    return EventuallyPeriodicWord(tuple(pre), tuple(per), n)


class TestShiftRepresentation:
    def test_generator_prepends_its_letter(self):
        rep = ShiftRepresentation(ep((), (1, 2)))
        v = StateVector({ep((), (1, 2)): q(1)})
        up = apply_generator(rep, v, 2)
        (key, coeff), = up.items()
        assert key == ep((2,), (1, 2))
        assert coeff == q(1)

    def test_adjoint_strips_matching_letter(self):
        rep = ShiftRepresentation(ep((), (1, 2)))
        v = StateVector({ep((), (1, 2)): q(1)})
        assert apply_generator(rep, v, 1, dagger=True).items()
        assert apply_generator(rep, v, 2, dagger=True).is_zero()

    def test_vector_state_moments_track_the_orbit(self):
        x = ep((1,), (1, 2))  # 1 1 2 1 2 ...
        w = vector_state(ShiftRepresentation(x), x)
        assert w.moment((1, 1, 2), (1, 1, 2)) == 1
        assert w.moment((1,), ()) == 0  # tails differ by one shift
        assert w.moment((1, 1), (1,)) == 0
        assert w.moment((2,), (2,)) == 0  # x does not start with 2

    def test_purely_periodic_word_diagonal(self):
        x = ep((), (1, 2))
        w = vector_state(ShiftRepresentation(x), x)
        assert w.moment((1, 2), ()) == 1  # shifting by the period returns x
        assert w.moment((1, 2, 1, 2), (1, 2)) == 1
        assert w.moment((1,), ()) == 0

    def test_dimension_counts_distinct_tails(self):
        x = ep((1,), (1, 2))
        r = cdim(vector_state(ShiftRepresentation(x), x))
        assert (r.value, r.status) == (3, "stabilized")
        assert r.level_ranks == (1, 2, 3, 3)
        assert r.pivot_words == ((), (1,), (1, 1))

    def test_matches_word_state_moments(self):
        from cuntzlab import make_prefix_code_state, words_upto

        x = ep((), (1, 2))
        sh = vector_state(ShiftRepresentation(x), x)
        wd = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        for J in words_upto(2, 4):
            for K in words_upto(2, 4):
                assert sh.moment(J, K) == wd.moment(J, K), (J, K)


class TestLazyWords:
    def test_presets_exist(self):
        assert set(LAZY_PRESETS) == {"sturmian", "thue_morse"}

    def test_thue_morse_prefix(self):
        lw = LAZY_PRESETS["thue_morse"](2, 64)
        assert isinstance(lw, LazyWord)
        # fixed point of 1 -> 12, 2 -> 21
        assert [lw.letter(i) for i in range(1, 9)] == [1, 2, 2, 1, 2, 1, 1, 2]

    def test_lazy_vector_state_diagonal_moments(self):
        lw = LAZY_PRESETS["thue_morse"](2, 64)
        w = vector_state(ShiftRepresentation(lw), ((), 0))
        assert w.family == "shift_lazy"
        assert w.moment((1,), (1,)) == 1  # starts with 1
        assert w.moment((2,), (2,)) == 0
        assert w.moment((1, 2, 2), (1, 2, 2)) == 1

    def test_aperiodic_word_never_stabilizes(self):
        lw = LAZY_PRESETS["sturmian"](2, 256)
        w = vector_state(ShiftRepresentation(lw), ((), 0))
        r = cdim(w, L_max=5)
        assert r.status == "lower_bound"
        assert r.value >= 5


class TestGridRepresentation:
    def test_up_and_down_moves(self):
        g = GridRepresentation(2)
        v = StateVector({(1, 0): q(1)})
        up = apply_generator(g, v, 1)
        (key, _), = up.items()
        assert key == (1, 1)
        up2 = apply_generator(g, v, 2)
        (key2, _), = up2.items()
        assert key2 == (2, 1)

    def test_down_requires_congruent_row(self):
        g = GridRepresentation(2)
        v = StateVector({(1, 0): q(1)})
        assert not apply_generator(g, v, 1, dagger=True).is_zero()
        assert apply_generator(g, v, 2, dagger=True).is_zero()

    def test_base_vector_moments_are_kronecker(self):
        w = vector_state(GridRepresentation(2), (1, 0))
        assert w.moment((1,), (1,)) == 1
        assert w.moment((1, 1), (1, 1)) == 1
        assert w.moment((1, 1), (1,)) == 0
        assert w.moment((2,), (2,)) == 0
        assert w.moment((1, 1, 1), (1, 1, 1)) == 1

    def test_three_letter_grid(self):
        w = vector_state(GridRepresentation(3), (1, 0))
        assert w.moment((1,), (1,)) == 1
        assert w.moment((2,), (2,)) == 0
        assert w.moment((3,), (3,)) == 0

    def test_dimension_never_stabilizes(self):
        w = vector_state(GridRepresentation(2), (1, 0))
        r = cdim(w, L_max=4)
        assert r.status == "lower_bound"
        assert r.value >= 5


class TestStateVector:
    def test_inner_and_norm(self):
        v = StateVector({(1, 0): q(fr(3, 5)), (2, 0): q(fr(4, 5))})
        assert v.norm2() == 1
        u = StateVector({(1, 0): q(1)})
        assert v.inner(u) == fr(3, 5)

    def test_scale_and_add(self):
        v = StateVector({(1, 0): q(1)})
        assert v.scale(q(2)).norm2() == 4


class TestGradingAndConvergence:
    """On the shift space of x = 1^inf the vector e_x is fixed by s_1* and
    killed by s_2*, so M = {e_x} is invariant and every level is spanned by
    basis vectors e_{w x}."""

    X = ep((), (1,))

    def test_levels_of_the_fixed_vector(self):
        rep = ShiftRepresentation(self.X)
        levels = dhj_grading(rep, [StateVector.basis(self.X)], 2)
        # level 1 adds e_{2x} (s_1 e_x = e_x is old); level 2 adds e_{12x}, e_{22x}
        assert levels == [
            [StateVector.basis(self.X)],
            [StateVector.basis(ep((2,), (1,)))],
            [StateVector.basis(ep((1, 2), (1,))), StateVector.basis(ep((2, 2), (1,)))],
        ]

    def test_grading_needs_an_invariant_subspace(self):
        rep = ShiftRepresentation(self.X)
        # s_2* e_{2x} = e_x leaves span{e_{2x}}
        with pytest.raises(NotInvariant):
            dhj_grading(rep, [StateVector.basis(ep((2,), (1,)))], 1)

    def test_distances_along_the_first_generator(self):
        rep = ShiftRepresentation(self.X)
        v = StateVector({ep((1, 2), (1,)): q(fr(3, 5)), ep((1, 1, 2), (1,)): q(fr(4, 5))})
        # s_1* v = 3/5 e_{2x} + 4/5 e_{12x} (orthogonal to e_x, distance 1);
        # s_1*^2 v = 4/5 e_{2x} (distance 4/5); s_1*^3 v = 0
        dist = lemma_convergence_check(rep, [StateVector.basis(self.X)], [gen(2, 1)] * 3, v, 3)
        assert dist == pytest.approx([1.0, 0.8, 0.0], abs=1e-12)

    def test_sequence_list_shorter_than_the_depth(self):
        rep = ShiftRepresentation(self.X)
        v = StateVector.basis(ep((2,), (1,)))
        with pytest.raises(SchemaError, match="need 3 sequence elements, got 2"):
            lemma_convergence_check(rep, [StateVector.basis(self.X)], [gen(2, 1)] * 2, v, 3)

    def test_element_on_a_lazy_word(self):
        # Thue-Morse t = 1 2 2 1 2 ...: the key ((), 1) is the tail 2 2 1 2 ...,
        # s_2* strips its 2, s_1 prepends 1; the tail t itself starts with 1,
        # so s_2* kills the second term
        rep = ShiftRepresentation(LAZY_PRESETS["thue_morse"](2, 64))
        v = StateVector({((), 1): q(fr(3, 5)), ((), 0): q(fr(4, 5))})
        out = apply_element(rep, monomial(2, (1,), (2,)), v)
        assert out == StateVector({((1,), 2): q(fr(3, 5))})
