"""Exact simulator for permutative representations on shift and grid spaces."""

import random
import re
from fractions import Fraction
from itertools import product
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import (
    LAZY_PRESETS,
    EventuallyPeriodicWord,
    GridRepresentation,
    NotInCatalog,
    NotInvariant,
    NotUnit,
    StateFacts,
    SchemaError,
    ShiftRepresentation,
    cdim,
    dhj_grading,
    gen,
    kappa_rep,
    lemma_convergence_check,
    monomial,
    vector_state,
    verify_properly_infinite,
    words_upto,
)
from cuntzlab.cli import run
from cuntzlab.scalars import DEFAULT_EQ_TOL, conj, is_exact_scalar, scalar_is_zero
from cuntzlab.shiftrep import LazyShiftRepresentation, LazyWord

from conftest import fr, q


def ep(pre, per, n=2):
    return EventuallyPeriodicWord(tuple(pre), tuple(per), n)


# Vectors are {key: coefficient} maps.  These helpers act through the
# representation protocol alone, so the oracles below share no code with
# the module under test.


def nonzero(v):
    return {key: c for key, c in v.items() if not scalar_is_zero(c, 0.0)}


def combine(*pairs):
    """sum c x over (c, x) pairs, without exact zeros."""
    out = {}
    for c, x in pairs:
        for key, b in x.items():
            out[key] = out.get(key, 0) + c * b
    return nonzero(out)


def raise_by(rep, v, i):
    """pi(s_i) v, one key at a time through ``rep.up``."""
    out = {}
    for key, c in v.items():
        new = rep.up(key, i)
        out[new] = out.get(new, 0) + c
    return nonzero(out)


def lower_by(rep, v, i):
    """pi(s_i)* v, one key at a time through ``rep.down``."""
    out = {}
    for key, c in v.items():
        new = rep.down(key, i)
        if new is not None:
            out[new] = out.get(new, 0) + c
    return nonzero(out)


def inner(x, y):
    """<x, y>, linear in y."""
    return sum((conj(c) * y[k] for k, c in x.items() if k in y), 0)


class TestShiftRepresentation:
    def test_generator_prepends_its_letter(self):
        rep = ShiftRepresentation(ep((), (1, 2)))
        assert rep.up(ep((), (1, 2)), 2) == ep((2,), (1, 2))
        assert rep.up(ep((), (1, 2)), 1) == ep((1,), (1, 2)) == ep((), (1, 2)).prepend((1,))

    def test_adjoint_strips_matching_letter(self):
        rep = ShiftRepresentation(ep((), (1, 2)))
        assert rep.down(ep((), (1, 2)), 1) == ep((), (2, 1))
        assert rep.down(ep((), (1, 2)), 2) is None

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

    def test_a_key_outside_the_tail_class_is_refused(self):
        # e_(2)^inf is a vector of another shift representation: its state
        # used to be read in this one
        rep = ShiftRepresentation(ep((), (1,)))
        with pytest.raises(SchemaError, match=r"shift key \(2\)\^inf is not in the tail class of \(1\)\^inf"):
            vector_state(rep, ep((), (2, 2)))
        with pytest.raises(SchemaError, match="not in the tail class"):
            vector_state(rep, {ep((2,), (1,)): q(1), ep((), (1, 2)): q(1)})
        with pytest.raises(SchemaError, match="eventually periodic words over n=2"):
            vector_state(rep, ep((), (1,), n=3))
        with pytest.raises(SchemaError, match="eventually periodic words over n=2"):
            vector_state(rep, (1, 0))

    def test_a_key_with_a_rotated_period_is_accepted(self):
        x = ep((), (1, 2))
        rep = ShiftRepresentation(x)
        y = ep((2, 2), (2, 1))
        assert rep.check_key(y) is y
        w = vector_state(rep, {x: q(1), y: q(1)})
        assert w.moment((), ()) == 1


class TestLazyWords:
    def test_presets_exist(self):
        assert set(LAZY_PRESETS) == {"sturmian", "thue_morse"}

    @pytest.mark.parametrize("name", ["sturmian", "thue_morse"])
    def test_a_preset_is_binary_and_takes_only_its_horizon(self, name):
        lw = LAZY_PRESETS[name](64)
        assert (lw.n, lw.horizon, lw.name) == (2, 64, name)
        assert LAZY_PRESETS[name]().horizon == 256
        with pytest.raises(TypeError):
            LAZY_PRESETS[name](3, 64)

    def test_thue_morse_prefix(self):
        lw = LAZY_PRESETS["thue_morse"](64)
        assert isinstance(lw, LazyWord)
        # fixed point of 1 -> 12, 2 -> 21
        assert [lw.letter(i) for i in range(1, 9)] == [1, 2, 2, 1, 2, 1, 1, 2]

    def test_lazy_vector_state_diagonal_moments(self):
        lw = LAZY_PRESETS["thue_morse"](64)
        w = vector_state(ShiftRepresentation(lw), ((), 0))
        assert w.family == "shift_lazy"
        assert w.moment((1,), (1,)) == 1  # starts with 1
        assert w.moment((2,), (2,)) == 0
        assert w.moment((1, 2, 2), (1, 2, 2)) == 1

    def test_aperiodic_word_never_stabilizes(self):
        lw = LAZY_PRESETS["sturmian"](256)
        w = vector_state(ShiftRepresentation(lw), ((), 0))
        r = cdim(w, L_max=5)
        assert r.status == "lower_bound"
        assert r.value >= 5


class TestLazyKeysAreTuples:
    """A preset is not eventually periodic, so two canonical keys name one
    vector only when they are equal tuples; keys are made canonical once, as
    the state is built."""

    def test_keys_that_name_one_vector_merge_at_entry(self):
        # Thue-Morse starts with 1, so 1 . shift^1(t) is t itself: the vector
        # is 2 e_t, whose state is that of e_t
        rep = ShiftRepresentation(LAZY_PRESETS["thue_morse"](64))
        w = vector_state(rep, {((1,), 1): 1, ((), 0): 1})
        base = vector_state(rep, ((), 0))
        assert w.moment((1,), (1,)) == 1
        for J in words_upto(2, 3):
            for K in words_upto(2, 3):
                assert w.moment(J, K) == base.moment(J, K), (J, K)

    @pytest.mark.parametrize("key, message", [
        (((3,), 0), "letter 3 outside alphabet 1..2"),
        (((), -1), r"lazy shift keys are pairs \(prefix, t >= 0\); got \(\(\), -1\)"),
        (((1,), True), r"lazy shift keys are pairs \(prefix, t >= 0\)"),
        (((), 0, 1), r"lazy shift keys are pairs \(prefix, t >= 0\); got \(\(\), 0, 1\)"),
        (5, r"lazy shift keys are pairs \(prefix, t >= 0\); got 5"),
    ])
    def test_a_key_off_the_alphabet_or_before_the_word_is_refused(self, key, message):
        rep = ShiftRepresentation(LAZY_PRESETS["thue_morse"](64))
        with pytest.raises(SchemaError, match=message):
            vector_state(rep, key)

    # the Fibonacci word x agrees with shift^K x beyond the horizon when K is
    # a Fibonacci number, yet x is not eventually periodic: omega(s_K*) = 0
    # for K the first F letters of x
    @pytest.mark.parametrize("horizon, length", [(16, 13), (64, 55), (256, 233)])
    def test_sturmian_long_repetitions_are_told_apart(self, horizon, length):
        lw = LAZY_PRESETS["sturmian"](horizon)
        w = vector_state(ShiftRepresentation(lw), ((), 0))
        assert w.moment((), lw.prefix(length)) == 0

    @pytest.mark.parametrize("horizon", [16, 64])
    def test_sturmian_kappa_recheck_holds(self, horizon, spec_file, capsys):
        spec = {"family": "vector", "rep": {"kind": "lazy", "preset": "sturmian", "horizon": horizon}, "key": [[], 0]}
        assert run(["kappa", spec_file(spec)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            f"delta table re-checked to cutoff {horizon}: status evidence")

    @settings(max_examples=12)
    @given(preset=st.sampled_from(sorted(LAZY_PRESETS)), horizon=st.integers(1, 64))
    def test_delta_table_is_exactly_delta(self, preset, horizon):
        w = vector_state(ShiftRepresentation(LAZY_PRESETS[preset](horizon)), ((), 0))
        check = verify_properly_infinite(w, cutoff=horizon)
        assert check.status == "evidence"
        assert check.table == tuple(tuple(int(l == k) for k in range(horizon)) for l in range(horizon))


class TestGridRepresentation:
    def test_up_and_down_moves(self):
        g = GridRepresentation(2)
        assert g.up((1, 0), 1) == (1, 1)
        assert g.up((1, 0), 2) == (2, 1)
        assert g.down((2, 1), 2) == (1, 0)

    def test_down_requires_congruent_row(self):
        g = GridRepresentation(2)
        assert g.down((1, 0), 1) == (1, -1)
        assert g.down((1, 0), 2) is None

    @pytest.mark.parametrize("key", [(1, 0, 0), 5, (0, 0), (True, 0)])
    def test_a_key_that_is_not_a_pair_k_m_is_refused(self, key):
        with pytest.raises(SchemaError, match=rf"grid keys are pairs \(k >= 1, m in Z\); got {re.escape(repr(key))}$"):
            vector_state(GridRepresentation(2), key)

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


def _strip_formula(rep, v, J, K):
    """The moments as they were computed before the vector model: strip J and
    K off v from scratch, letter by letter, and divide <left, right> by <v, v>.
    A lazy key (prefix, t) is first rebuilt as pi(s_prefix) e_{shift^t x},
    raised one letter at a time from the bare tail."""

    def strip(u, W):
        for a in W:
            u = lower_by(rep, u, a)
        return u

    def lift(prefix, t):
        u = {((), t): 1}
        for a in reversed(prefix):
            u = raise_by(rep, u, a)
        return u

    if isinstance(rep, LazyShiftRepresentation):
        v = combine(*((c, lift(*key)) for key, c in v.items()))
    val = inner(strip(v, J), strip(v, K))
    nrm2 = inner(v, v)
    if is_exact_scalar(val) and is_exact_scalar(nrm2):
        return Fraction(val, nrm2) if isinstance(val, int) and isinstance(nrm2, int) else val / nrm2
    return complex(val) / complex(nrm2)


def _model_pairs(n, seed):
    """Every pair with |J|, |K| <= 4, then 30 seeded pairs up to length 12."""
    short = list(words_upto(n, 4))
    yield from product(short, short)
    rng = random.Random(seed)
    for _ in range(30):
        yield (tuple(rng.randint(1, n) for _ in range(rng.randint(5, 12))),
               tuple(rng.randint(1, n) for _ in range(rng.randint(0, 12))))


X12 = ep((2,), (1, 1, 2))
VECTOR_CASES = {
    "shift_basis": lambda: (ShiftRepresentation(X12), X12),
    "shift_superposition": lambda: (
        ShiftRepresentation(X12), {X12: q(1), X12.prepend((1, 2)): q(0, fr(2, 3)), X12.shift(): q(-1)}),
    "lazy_basis": lambda: (ShiftRepresentation(LAZY_PRESETS["thue_morse"](24)), ((), 0)),
    "lazy_superposition": lambda: (
        ShiftRepresentation(LAZY_PRESETS["sturmian"](24)),
        {((), 0): q(1), ((1,), 2): q(fr(1, 2), 1), ((), 3): q(2)}),
    "grid_basis": lambda: (GridRepresentation(3), (7, -1)),
    "grid_superposition": lambda: (
        GridRepresentation(2), {(1, 0): q(1), (2, 1): q(0, 1), (6, 1): q(fr(3, 2)), (3, -2): q(2)}),
    "grid_float": lambda: (GridRepresentation(2), {(1, 0): 0.5 + 0.25j, (2, 1): -0.75, (5, 1): 1.5j}),
    # integer coefficients: integer inner products over the integer norm 6
    "grid_integers": lambda: (GridRepresentation(2), {(1, 0): 1, (2, 1): 2, (4, 1): -1}),
}


class TestVectorStateModel:
    """Moments are <v_J, v_K> / <v, v> over prefix-memoized v_J; the from-scratch strip is the oracle."""

    @pytest.mark.parametrize("name", sorted(VECTOR_CASES))
    def test_moments_match_the_strip_formula(self, name):
        rep, x = VECTOR_CASES[name]()
        w = vector_state(rep, x)
        v = x if isinstance(x, dict) else {x: 1}
        for J, K in _model_pairs(rep.n, 11):
            got, want = w.moment(J, K), _strip_formula(rep, v, J, K)
            # same type and, for floats, every bit
            assert type(got) is type(want) and repr(got) == repr(want), (J, K)

    def test_vectors_are_memoized_by_prefix(self):
        rep = GridRepresentation(2)
        model = vector_state(rep, (6, 0)).model
        # pi(s_2)* e_(6,0) = e_(3,-1) and pi(s_1)* e_(3,-1) = e_(2,-2)
        v = model.vector((2, 1))
        assert v == {(2, -2): 1}
        assert model.vector((2, 1)) is v and model.vector((2,)) == {(3, -1): 1}


SHIFT_PURE = ("Pure", "vector state of an irreducible shift representation")
GRID_PURE = ("Pure", "vector state of the irreducible grid representation")
THUE_MORSE = LAZY_PRESETS["thue_morse"](24)
# (rep, basis key or vector, family, facts without the sequence, the sequence's
# first letters, status and horizon or None)
PROTOCOL_CASES = {
    "shift_basis": lambda: (ShiftRepresentation(X12), ep((), (1, 2, 1)), "shift",
                            StateFacts(purity=SHIFT_PURE, shift_period=3, tail_class=ep((), (1, 2, 1)),
                                       minimal_isometry=monomial(2, (1, 2, 1))), None),
    "shift_basis_period_one": lambda: (ShiftRepresentation(ep((), (2,), n=3)), ep((1,), (2,), n=3), "shift",
                                       StateFacts(purity=SHIFT_PURE, cuntz=((0, 1, 0), "family"), shift_period=1,
                                                  tail_class=ep((1,), (2,), n=3)), None),
    "shift_superposition": lambda: (ShiftRepresentation(X12), {X12: q(1), X12.shift(): q(0, 1)},
                                    "shift_vector", StateFacts(purity=SHIFT_PURE, shift_period=3, tail_class=X12),
                                    None),
    # 2 . t is canonical: t starts with 1
    "lazy_basis": lambda: (ShiftRepresentation(THUE_MORSE), ((2,), 0), "shift_lazy",
                           StateFacts(purity=SHIFT_PURE), ((2, 1, 2, 2, 1), "evidence", 24)),
    "lazy_superposition": lambda: (ShiftRepresentation(THUE_MORSE), {((), 0): 1, ((2,), 0): 1},
                                   "shift_lazy", StateFacts(purity=SHIFT_PURE), None),
    # e_(5,m) = pi(s_1 s_1 s_2) e_(1,m-3), padded by the first generator
    "grid_basis": lambda: (GridRepresentation(2), (5, 0), "grid", StateFacts(purity=GRID_PURE),
                           ((1, 1, 2, 1, 1), "proved", None)),
    "grid_superposition": lambda: (GridRepresentation(3), {(1, 0): q(1), (4, 1): q(fr(1, 2))},
                                   "grid_vector", StateFacts(purity=GRID_PURE), None),
}


class _Foreign:
    """A representation outside the catalogue that answers the same protocol."""

    def __init__(self, rep):
        self._rep = rep

    def __getattr__(self, name):
        return getattr(self._rep, name)


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
def test_each_kind_answers_the_representation_protocol(name):
    rep, x, family, facts, sequence = PROTOCOL_CASES[name]()
    w = vector_state(rep, x)
    assert (w.family, w.exact) == (family, True)
    assert w.facts._replace(sequence=None) == facts
    if sequence is None:
        assert w.facts.sequence is None
    else:
        letters, status, horizon = sequence
        seq = w.facts.sequence
        assert (seq.status, seq.horizon) == (status, horizon)
        assert [seq.factory(i) for i in range(1, len(letters) + 1)] == [monomial(rep.n, (a,)) for a in letters]
    keys = rep.sample_keys()
    assert len(keys) == 3 and [rep.check_key(key) for key in keys] == keys
    assert rep.check_key(rep.generator_key()) == rep.generator_key()
    with pytest.raises(NotInCatalog):
        kappa_rep(_Foreign(rep))


class TestGradingAndConvergence:
    """On the shift space of x = 1^inf the vector e_x is fixed by s_1* and
    killed by s_2*, so M = {e_x} is invariant and every level is spanned by
    basis vectors e_{w x}."""

    X = ep((), (1,))

    def test_levels_of_the_fixed_vector(self):
        rep = ShiftRepresentation(self.X)
        levels = dhj_grading(rep, [self.X], 2)
        # level 1 adds e_{2x} (s_1 e_x = e_x is old); level 2 adds e_{12x}, e_{22x}
        assert levels == [
            [{self.X: 1}],
            [{ep((2,), (1,)): 1}],
            [{ep((1, 2), (1,)): 1}, {ep((2, 2), (1,)): 1}],
        ]
        assert dhj_grading(rep, [{self.X: 1}], 2) == levels

    def test_grading_needs_an_invariant_subspace(self):
        rep = ShiftRepresentation(self.X)
        # s_2* e_{2x} = e_x leaves span{e_{2x}}
        with pytest.raises(NotInvariant, match=r"pi\(s_2\)\* maps the subspace outside itself \(residual on \(1\)\^inf\)"):
            dhj_grading(rep, [ep((2,), (1,))], 1)

    def test_distances_along_the_first_generator(self):
        rep = ShiftRepresentation(self.X)
        v = {ep((1, 2), (1,)): q(fr(3, 5)), ep((1, 1, 2), (1,)): q(fr(4, 5))}
        # s_1* v = 3/5 e_{2x} + 4/5 e_{12x} (orthogonal to e_x, distance 1);
        # s_1*^2 v = 4/5 e_{2x} (distance 4/5); s_1*^3 v = 0
        dist = lemma_convergence_check(rep, [self.X], [gen(2, 1)] * 3, v, 3)
        assert dist == pytest.approx([1.0, 0.8, 0.0], abs=1e-12)

    def test_sequence_list_shorter_than_the_depth(self):
        rep = ShiftRepresentation(self.X)
        with pytest.raises(SchemaError, match="need 3 sequence elements, got 2"):
            lemma_convergence_check(rep, [self.X], [gen(2, 1)] * 2, ep((2,), (1,)), 3)

    def test_an_element_over_another_alphabet_is_refused(self):
        rep = ShiftRepresentation(self.X)
        with pytest.raises(SchemaError, match="^element over n=3, representation over n=2$"):
            lemma_convergence_check(rep, [self.X], [monomial(3, (1,))], self.X, 1)

    def test_an_element_that_is_not_a_creation_isometry_is_refused(self):
        # s_1 s_1* is a projection, not an isometry
        rep = ShiftRepresentation(self.X)
        with pytest.raises(NotUnit, match="^a_1 is not an isometry in the creation span$"):
            lemma_convergence_check(rep, [self.X], [monomial(2, (1,), (1,))], self.X, 1)

    # each vector of M, and v, passes the key check that vector_state makes
    def test_a_key_of_another_kind_is_refused_by_the_grading(self):
        rep = ShiftRepresentation(self.X)
        with pytest.raises(SchemaError, match=r"shift keys are eventually periodic words over n=2; got \(1, 0\)"):
            dhj_grading(rep, [(1, 0)], 1)

    def test_a_key_outside_the_tail_class_is_refused_by_the_grading(self):
        # e_(2)^inf is a vector of another shift representation
        rep = ShiftRepresentation(self.X)
        with pytest.raises(SchemaError, match=r"shift key \(2\)\^inf is not in the tail class of \(1\)\^inf"):
            dhj_grading(rep, [{ep((), (2,)): 1}], 1)

    def test_a_foreign_vector_is_refused_by_the_convergence_check(self):
        rep = ShiftRepresentation(self.X)
        with pytest.raises(SchemaError, match="shift keys are eventually periodic words over n=2"):
            lemma_convergence_check(rep, [self.X], [gen(2, 1)], {(1, 0): 1}, 1)

    def test_element_on_a_lazy_word(self):
        # Thue-Morse t = 1 2 2 1 2 ...: the key ((), 1) is the tail 2 2 1 2 ...,
        # s_2* strips its 2, s_1 prepends 1; the tail t itself starts with 1,
        # so s_2* kills the second term
        rep = ShiftRepresentation(LAZY_PRESETS["thue_morse"](64))
        assert rep.down(((), 1), 2) == ((), 2) and rep.up(((), 2), 1) == ((1,), 2)
        assert rep.down(((), 0), 2) is None
        v = {((), 1): q(fr(3, 5)), ((), 0): q(fr(4, 5))}
        assert raise_by(rep, lower_by(rep, v, 2), 1) == {((1,), 2): q(fr(3, 5))}


def gram_schmidt(vectors, seed=()):
    """Modified Gram-Schmidt of ``vectors`` against the orthogonal ``seed``:
    the residuals that are not zero, unnormalized."""
    new = []
    for v in vectors:
        r = v
        for b in list(seed) + new:
            r = combine((1, r), (-(inner(b, r) / inner(b, b)), b))
        if r:
            new.append(r)
    return new


def reference_grading(rep, M, depth):
    """H_0 = span(M); H_k = the part of the level-k images orthogonal to
    H_0 .. H_(k-1), each by Gram-Schmidt."""
    levels = [gram_schmidt(M)]
    spanning, accumulated = levels[0], list(levels[0])
    for _ in range(depth):
        images = [raise_by(rep, b, i) for b in spanning for i in range(1, rep.n + 1)]
        spanning = gram_schmidt(images)
        levels.append(gram_schmidt(images, accumulated))
        accumulated += levels[-1]
    return levels


class TestGradingOfANonOrthogonalSubspace:
    """On the shift space of x = (12)^inf, s_1* and s_2* swap e_x and
    e_x' (x' = (21)^inf) or kill them, so span{e_x, e_x'} is invariant.  M
    spans it with two non-orthogonal Gaussian combinations, and the images
    s_1 e_x' = e_x, s_2 e_x = e_x' fall back onto it."""

    X, XP = ep((), (1, 2)), ep((), (2, 1))
    M = [
        {X: q(1, 1), XP: q(fr(1, 2))},
        {X: q(2), XP: q(fr(-1, 3), 1)},
    ]
    # v = 3/5 e_{111x} + 4i/5 e_{122x} + e_x, pulled back along the letters
    # 1, 1, 1, 2: at distances 1, 3/5 (3/5 e_{1x} is left outside), 0, 0
    V = {ep((1, 1, 1), (1, 2)): q(fr(3, 5)), ep((1, 2, 2), (1, 2)): q(0, fr(4, 5)), X: q(1)}
    LETTERS = (1, 1, 1, 2)
    A = [gen(2, i) for i in LETTERS]

    def float_twin(self, v):
        return {k: complex(c) for k, c in v.items()}

    def test_vectors_and_images_are_not_orthogonal(self):
        rep = ShiftRepresentation(self.X)
        assert inner(self.M[0], self.M[1]) != 0
        images = [raise_by(rep, v, i) for v in self.M for i in (1, 2)]
        assert any(inner(a, b) != 0 for a in images for b in images if a is not b)

    def test_exact_levels_match_gram_schmidt(self):
        rep = ShiftRepresentation(self.X)
        levels = dhj_grading(rep, self.M, 3)
        assert levels == reference_grading(rep, self.M, 3)
        assert [len(level) for level in levels] == [2, 2, 4, 8]
        flat = [b for level in levels for b in level]
        assert all(inner(a, b) == 0 for i, a in enumerate(flat) for b in flat[i + 1:])

    def test_exact_distances_match_gram_schmidt(self):
        rep = ShiftRepresentation(self.X)
        base = gram_schmidt(self.M)
        expected, w = [], self.V
        for i in self.LETTERS:
            w = lower_by(rep, w, i)
            r = gram_schmidt([w], base)
            expected.append(sqrt(abs(complex(inner(r[0], r[0])))) if r else 0.0)
        assert lemma_convergence_check(rep, self.M, self.A, self.V, 4) == expected == [1.0, 0.6, 0.0, 0.0]

    def test_float_grading_matches_its_exact_twin(self):
        rep = ShiftRepresentation(self.X)
        exact = dhj_grading(rep, self.M, 3)
        levels = dhj_grading(rep, [self.float_twin(v) for v in self.M], 3)
        assert [len(level) for level in levels] == [len(level) for level in exact]
        flat = [b for level in levels for b in level]
        for i, a in enumerate(flat):
            for j, b in enumerate(flat):
                assert abs(inner(a, b) - (i == j)) <= DEFAULT_EQ_TOL

    def test_float_distances_match_their_exact_twins(self):
        rep = ShiftRepresentation(self.X)
        exact = lemma_convergence_check(rep, self.M, self.A, self.V, 4)
        approx = lemma_convergence_check(rep, [self.float_twin(v) for v in self.M], self.A,
                                         self.float_twin(self.V), 4)
        assert approx == pytest.approx(exact, abs=1e-12)
