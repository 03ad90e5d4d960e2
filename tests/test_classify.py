"""Invariants and certificates: cdim, kappa, purity, equivalence, buckets."""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuntzlab import (
    LAZY_PRESETS,
    AlphabetMismatch,
    CuntzElement,
    EquivalentToCuntz,
    EventuallyPeriodicWord,
    GridRepresentation,
    LowerBoundOnly,
    Minimal,
    MomentFunctional,
    ProperlyInfinite,
    PurityDecision,
    SchemaError,
    ShiftPeriod,
    ShiftRepresentation,
    VectorModel,
    adjoint,
    cdim,
    equivalent,
    gauge_apply,
    gen,
    hat_parameter,
    identity,
    kappa,
    kappa_rep,
    make_cuntz,
    make_geometric_progression,
    make_induced_product,
    make_mixture,
    make_prefix_code_state,
    make_split_series_sandwich,
    make_sub_cuntz,
    monomial,
    multiply,
    pure,
    transform_gauge,
    transform_sandwich,
    vector_state,
    verify_minimality_certificate,
    verify_properly_infinite,
)
from cuntzlab.classify import _tensor_conjugate
from cuntzlab.linalg import hermitian_transpose
from cuntzlab.scalars import conj, scalar_is_zero, scalars_close
from cuntzlab.words import all_words

from conftest import fr, q

Z35 = [q(fr(3, 5)), q(fr(4, 5))]
ROT = [
    [q(fr(3, 5)), q(fr(-4, 5))],
    [q(fr(4, 5)), q(fr(3, 5))],
]


def ep(pre, per, n=2):
    return EventuallyPeriodicWord(tuple(pre), tuple(per), n)


def shift_state(pre, per, n=2):
    x = ep(pre, per, n)
    return vector_state(ShiftRepresentation(x), x)


class TestCdim:
    def test_cuntz_state_is_one_dimensional(self):
        r = cdim(make_cuntz(Z35))
        assert (r.value, r.status) == (1, "stabilized")
        assert r.level_ranks == (1, 1)
        assert r.pivot_words == ((),)

    def test_word_state_dimension_two(self):
        r = cdim(make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2))
        assert (r.value, r.status) == (2, "stabilized")
        assert r.level_ranks == (1, 2, 2)
        assert r.pivot_words == ((), (1,))

    def test_compressed_state_dimension_two(self):
        w = transform_sandwich(make_cuntz([q(1), q(0)]), [(1, gen(2, 2))])
        r = cdim(w)
        assert (r.value, r.status) == (2, "stabilized")

    def test_shift_state_counts_tails(self):
        r = cdim(shift_state((1,), (1, 2)))
        assert (r.value, r.status) == (3, "stabilized")

    def test_growing_state_reports_lower_bound(self):
        r = cdim(make_split_series_sandwich(), L_max=4)
        assert r.status == "lower_bound"
        assert r.value == 13
        assert r.level_ranks == (1, 3, 6, 9, 13)


class TestKappaCertificates:
    def test_word_state_minimal(self):
        k = kappa(make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2))
        assert k.value == 2
        assert isinstance(k.certificate, Minimal)
        assert k.certificate.u == monomial(2, (1, 2))

    def test_shift_state_period(self):
        k = kappa(shift_state((1,), (1, 2)))
        assert k.value == 2
        assert k.certificate == ShiftPeriod(d=2)

    def test_grid_state_properly_infinite(self):
        k = kappa(vector_state(GridRepresentation(2), (1, 0)))
        assert k.value == inf
        assert isinstance(k.certificate, ProperlyInfinite)
        assert k.certificate.status == "proved"

    def test_lazy_shift_state_evidence_only(self):
        from cuntzlab import LAZY_PRESETS

        w = vector_state(ShiftRepresentation(LAZY_PRESETS["thue_morse"](64)), ((), 0))
        k = kappa(w)
        assert k.value == inf
        assert isinstance(k.certificate, ProperlyInfinite)
        assert k.certificate.status == "evidence"

    def test_sandwich_without_user_equivalence_is_unresolved(self):
        w = transform_sandwich(make_cuntz([q(1), q(0)]), [(1, gen(2, 2))])
        k = kappa(w)
        assert k.value is None
        assert isinstance(k.certificate, LowerBoundOnly)
        assert (k.certificate.low, k.certificate.high) == (1, 2)

    def test_sandwich_with_user_equivalence_closes(self):
        w = transform_sandwich(
            make_cuntz([q(1), q(0)]), [(1, gen(2, 2))], equivalent_to_cuntz=[1, 0]
        )
        k = kappa(w)
        assert k.value == 1
        assert isinstance(k.certificate, EquivalentToCuntz)
        assert k.certificate.provenance == "user"

    def test_series_state_closes_by_family(self):
        k = kappa(make_split_series_sandwich())
        assert k.value == 1
        assert isinstance(k.certificate, EquivalentToCuntz)
        assert k.certificate.provenance == "family"

    def test_hat_parameter_progression_closes(self):
        w = make_geometric_progression(2, hat_parameter(Z35, 2), 2)
        k = kappa(w)
        assert k.value == 1
        assert isinstance(k.certificate, EquivalentToCuntz)
        assert tuple(k.certificate.z) == tuple(Z35)

    def test_gauge_transport(self):
        k = kappa(transform_gauge(make_cuntz(Z35), [[0, 1], [1, 0]]))
        assert k.value == 1
        assert isinstance(k.certificate, EquivalentToCuntz)
        assert tuple(k.certificate.z) == (q(fr(4, 5)), q(fr(3, 5)))

    def test_cuntz_state_kappa_one(self):
        k = kappa(make_cuntz(Z35))
        assert k.value == 1
        assert isinstance(k.certificate, EquivalentToCuntz)

    def test_certificate_search_finds_the_fixing_isometry(self):
        # the trivial sandwich of the Cuntz state by (1, 0) carries no fact, but
        # |omega(s_1)|^2 + |omega(s_2)|^2 = 1 on the code {1, 2}, so u = s_1
        w = transform_sandwich(make_cuntz([q(1), q(0)]), [(1, identity(2))])
        k = kappa(w)
        assert k.value is None
        assert isinstance(k.certificate, LowerBoundOnly)
        assert (k.certificate.low, k.certificate.high) == (1, 1)
        k = kappa(w, search_certificates=True)
        assert k.value == 1
        assert k.certificate == Minimal(gen(2, 1))

    def test_failed_certificate_search_is_noted(self):
        # the even mixture of the Cuntz states by (1, 0) and (0, 1) has
        # sum |omega(s_W)|^2 = 1/2 on every candidate code
        m = make_mixture([make_cuntz([q(1), q(0)]), make_cuntz([q(0), q(1)])], [q(fr(1, 2)), q(fr(1, 2))])
        k = kappa(m, search_certificates=True, search_depth=2)
        assert k.value is None
        assert k.certificate.note.endswith("; a prefix-code search up to depth 2 found no certificate")

    def test_a_search_past_the_table_limit_is_refused_only_when_it_runs(self):
        # depth 3 over 26 letters lists 18278 > 2^14 uniform-code words, but a
        # Cuntz parameter decides kappa before any search would run
        z = [q(1)] + [q(0)] * 25
        omega = make_cuntz(z)
        for search in (False, True):
            assert kappa(omega, search_certificates=search) == (1, EquivalentToCuntz(tuple(z), "family"))
        m = make_mixture([omega, make_cuntz(z[1:] + z[:1])], [q(fr(1, 2)), q(fr(1, 2))])
        with pytest.raises(SchemaError, match="^the uniform codes of a search to depth 3 over 26 letters exceed 16384 words$"):
            kappa(m, search_certificates=True)


class TestMinimalityVerifier:
    def test_word_isometry_accepted(self):
        w = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        assert verify_minimality_certificate(w, monomial(2, (1, 2)))

    def test_wrong_isometry_rejected(self):
        w = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        assert not verify_minimality_certificate(w, gen(2, 1))


class TestProperlyInfiniteVerifier:
    def test_grid_delta_table(self):
        w = vector_state(GridRepresentation(2), (1, 0))
        chk = verify_properly_infinite(w, cutoff=4)
        assert chk.ok and chk.status == "proved"
        assert chk.cutoff == 4
        for l in range(1, 5):
            for k in range(1, 5):
                assert chk.table[l - 1][k - 1] == (1 if l == k else 0), (l, k)

    def test_induced_product_delta_table(self):
        w = make_induced_product([], [Z35, [q(0), q(1)]], 2)
        chk = verify_properly_infinite(w, cutoff=3)
        assert chk.ok and chk.status == "proved"
        assert chk.table[0][0] == 1
        assert chk.table[0][1] == 0

    def test_plain_list_sequence(self):
        from cuntzlab import SchemaError

        # s_1^l e_(1,0) = e_(1,l): distinct grid levels, so the table is the
        # identity, but a sequence the caller supplies is only evidence
        w = vector_state(GridRepresentation(2), (1, 0))
        chk = verify_properly_infinite(w, [gen(2, 1)] * 4, cutoff=4)
        assert chk.status == "evidence" and not chk.ok
        with pytest.raises(SchemaError, match="need 4 sequence elements, got 2"):
            verify_properly_infinite(w, [gen(2, 1)] * 2, cutoff=4)

    def test_state_without_sequence_cannot_be_checked(self):
        from cuntzlab import SchemaError

        with pytest.raises(SchemaError):
            verify_properly_infinite(make_cuntz(Z35), cutoff=3)


def _double_sum_table(omega, seq, cutoff):
    """The delta table as it was computed before the vector model: multiply
    the prefix products a_1..a_l out, then sum x_J conj(y_K) omega(s_J s_K*)
    over their creation terms."""
    factory = seq.factory if hasattr(seq, "factory") else (lambda i: seq[i - 1])
    prods = [identity(omega.n)]
    for i in range(1, cutoff + 1):
        prods.append(multiply(prods[-1], factory(i)))
    vecs = [{J: c for (J, _), c in p.terms.items()} for p in prods]
    return tuple(
        tuple(sum((x * conj(y) * omega.moment(J, K) for J, x in vecs[l].items() for K, y in vecs[k].items()), 0)
              for k in range(1, cutoff + 1))
        for l in range(1, cutoff + 1)
    )


Z35I = [q(fr(3, 5)), q(0, fr(4, 5))]
G_C = [[q(fr(3, 5)), q(0, fr(4, 5))], [q(0, fr(4, 5)), q(fr(3, 5))]]
# 3/5 s_1 + 4/5 s_21: an isometry whose terms have two lengths
MIXED = CuntzElement(2, {((1,), ()): q(fr(3, 5)), ((2, 1), ()): q(fr(4, 5))})


def _induced():
    return make_induced_product([Z35], [Z35I, [q(fr(5, 13)), q(0, fr(-12, 13))]], 2)


class TestDeltaTableThroughTheModel:
    """Modelled states step v(P_l) = pi(a_l)* v(P_(l-1)); the double sum is the oracle."""

    CASES = {
        # (state, sequence or None for the state's own, cutoff, expected status)
        "induced_own": lambda: (_induced(), None, 5, "proved"),
        "grid_own": lambda: (vector_state(GridRepresentation(2), (5, 0)), None, 5, "proved"),
        "lazy_own": lambda: (
            vector_state(ShiftRepresentation(LAZY_PRESETS["thue_morse"](16)), ((), 0)), None, 5, "evidence"),
        "induced_list": lambda: (
            _induced(),
            [CuntzElement(2, {((j,), ()): _induced().facts.induced.at(i)[j - 1] for j in (1, 2)})
             for i in range(1, 6)],
            5, "evidence"),
        "grid_list": lambda: (vector_state(GridRepresentation(3), (1, 0)), [gen(3, 1)] * 4, 4, "evidence"),
        "induced_mixed_lengths": lambda: (_induced(), [MIXED] * 4, 4, "failed"),
        "grid_mixed_lengths": lambda: (
            vector_state(GridRepresentation(2), {(1, 0): q(1), (4, 1): q(0, 2)}), [MIXED] * 4, 4,
            "failed"),
        "grid_wrong_letter": lambda: (vector_state(GridRepresentation(2), (1, 0)), [gen(2, 2)] * 3, 3, "failed"),
        "twisted_induced_transported": lambda: (
            transform_gauge(_induced(), G_C),
            [gauge_apply(hermitian_transpose(G_C), _induced().facts.sequence.factory(i)) for i in range(1, 5)],
            4, "evidence"),
        # a prefix-code twist steps the suffix model of its base
        "twisted_word_transported": lambda: (
            transform_gauge(make_prefix_code_state([(1, 1, 2)], [q(1)], 2), G_C),
            [gauge_apply(hermitian_transpose(G_C), gen(2, 1))] * 4,
            4, "failed"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_table_matches_the_double_sum(self, name, no_word_model):
        omega, seq, cutoff, status = self.CASES[name]()
        chk = verify_properly_infinite(omega, seq, cutoff=cutoff)
        assert chk.status == status
        assert chk.table == _double_sum_table(omega, seq if seq is not None else omega.facts.sequence, cutoff)

    def test_induced_table_multiplies_only_the_isometry_checks_and_reads_no_moment(self, monkeypatch):
        import cuntzlab.symalg as symalg_mod

        calls = []
        real = symalg_mod.multiply

        def counted(x, y):
            calls.append((x, y))
            return real(x, y)

        monkeypatch.setattr(symalg_mod, "multiply", counted)
        omega = _induced()

        def no_moment(model, J, K=()):
            raise AssertionError(f"moment ({J}, {K}) read")

        monkeypatch.setattr(VectorModel, "moment", no_moment)
        chk = verify_properly_infinite(omega, cutoff=8)
        assert chk.status == "proved" and len(chk.table) == 8
        # one product per element, the check a_i* a_i = I; no prefix product is formed
        seq = omega.facts.sequence.factory
        assert calls == [(adjoint(seq(i)), seq(i)) for i in range(1, 9)]

    def test_an_unmodelled_state_steps_its_word_model(self):
        # a raw functional's model is its word model, whose vectors are the
        # prefix products themselves, so its table is the double sum; the
        # mixture it reads steps its own model to the same table
        mixture = make_mixture([_induced(), make_induced_product([], [Z35I, Z35], 2)], [q(fr(1, 3)), q(fr(2, 3))])
        omega = MomentFunctional(2, "raw", lambda J, K: mixture.model(J, K))
        assert omega.model.vector((1, 2)) == {(1, 2): 1}
        # the mixture's own model is the direct sum, one vector per component
        vector = mixture.model.vector((1, 2))
        assert isinstance(vector, tuple) and len(vector) == 2
        seq = self.CASES["induced_list"]()[1]
        chk = verify_properly_infinite(omega, seq, cutoff=5)
        assert chk.status == "failed"
        assert chk.table == _double_sum_table(omega, seq, 5)
        assert verify_properly_infinite(mixture, seq, cutoff=5).table == chk.table

    def test_a_sequence_over_another_algebra_is_refused(self):
        from cuntzlab import SchemaError

        with pytest.raises(SchemaError, match="different algebras"):
            verify_properly_infinite(_induced(), [gen(3, 1)] * 2, cutoff=2)


class TestPurity:
    def test_cuntz_states_are_pure(self):
        d = pure(make_cuntz(Z35))
        assert d.verdict == "Pure"
        assert "irreducible" in d.reason

    def test_determined_sub_cuntz_is_pure(self):
        d = pure(make_sub_cuntz(2, {(1, 2): 1}, 2))
        assert d.verdict == "Pure"

    def test_tensor_square_is_a_twisted_mixture(self):
        from itertools import product

        zz = {}
        for J in product((1, 2), repeat=2):
            zz[J] = Z35[J[0] - 1] * Z35[J[1] - 1]
        d = pure(make_sub_cuntz(2, zz, 2))
        assert d.verdict == "NotPure"

    def test_induced_products_decompose(self):
        d = pure(make_induced_product([], [Z35, [q(0), q(1)]], 2))
        assert d.verdict == "NotPure"

    def test_mixtures_are_not_pure(self):
        m = make_mixture(
            [make_cuntz([q(1), q(0)]), make_cuntz([q(0), q(1)])],
            [fr(1, 2), fr(1, 2)],
        )
        assert pure(m).verdict == "NotPure"

    def test_series_state_is_pure(self):
        assert pure(make_split_series_sandwich()).verdict == "Pure"

    @pytest.mark.xfail(strict=True, reason="known wrong answer: the series state's facts declare it pure, but its "
                                           "moments are those of the mixture sum_l 2^-l omega_(x_l)")
    def test_series_state_is_a_mixture(self):
        # omega(s_1 s_1*) = 1/2 while omega_(x_1)(s_1 s_1*) = 1, so omega != omega_(x_1) is a
        # proper convex combination of 1/2 omega_(x_1) and another state
        assert pure(make_split_series_sandwich()).verdict != "Pure"

    @pytest.mark.xfail(strict=True, reason="known wrong answer: a mixture's facts say NotPure whatever its "
                                           "components are")
    def test_even_mixture_of_a_state_with_itself_is_that_state(self):
        w = make_cuntz(Z35)
        m = make_mixture([w, make_cuntz(Z35)], [fr(1, 2), fr(1, 2)])
        verdicts = (pure(m).verdict, equivalent(m, w).verdict)
        assert verdicts[0] != "NotPure" and verdicts[1] != "Inequivalent", verdicts

    def test_word_state_purity_unknown(self):
        d = pure(make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2))
        assert d.verdict == "Unknown"

    def test_gauge_delegates_to_base(self):
        d = pure(transform_gauge(make_cuntz(Z35), ROT))
        assert d.verdict == "Pure"

    def test_compression_of_a_pure_state_stays_pure(self):
        d = pure(transform_sandwich(make_cuntz([q(1), q(0)]), [(1, gen(2, 2))]))
        assert d.verdict == "Pure"
        assert "unit vector state" in d.reason

    def test_compression_follows_the_decided_verdict_of_its_base(self):
        # the word state 12 is decided pure from its unique word moments, not
        # built as a vector state; a unit vector in its irreducible GNS
        # representation still gives a pure state
        base = make_sub_cuntz(2, {(1, 2): 1}, 2)
        assert pure(base).verdict == "Pure"
        d = pure(transform_sandwich(base, [(1, gen(2, 2))]))
        assert d == PurityDecision("Pure", "unit vector state in the irreducible representation of a pure state")

    def test_gauge_twist_of_that_compression_is_pure(self):
        sand = transform_sandwich(make_sub_cuntz(2, {(1, 2): 1}, 2), [(1, gen(2, 2))])
        d = pure(transform_gauge(sand, [[q(1), q(0)], [q(0), q(0, 1)]]))
        assert d == PurityDecision(
            "Pure",
            "unit vector state in the irreducible representation of a pure state; "
            "composition with a gauge automorphism preserves purity",
        )

    def test_compression_of_a_mixture_stays_unknown(self):
        m = make_mixture([make_cuntz([q(1), q(0)]), make_cuntz([q(0), q(1)])], [fr(1, 2), fr(1, 2)])
        assert pure(transform_sandwich(m, [(1, gen(2, 1))])).verdict == "Unknown"


class TestEquivalence:
    def test_same_cuntz_parameters(self):
        assert equivalent(make_cuntz(Z35), make_cuntz(Z35)).verdict == "Equivalent"

    def test_states_over_different_alphabets_are_refused(self):
        with pytest.raises(AlphabetMismatch, match="^states live on O_2 and O_3$"):
            equivalent(make_cuntz([1, 0]), make_cuntz([1, 0, 0]))

    def test_different_cuntz_parameters(self):
        assert (
            equivalent(make_cuntz(Z35), make_cuntz([q(1), q(0)])).verdict
            == "Inequivalent"
        )

    def test_conjugate_words_share_a_tail_class(self):
        w12 = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        w21 = make_prefix_code_state([(2, 1)], {(2, 1): 1}, 2)
        d = equivalent(w12, w21)
        assert d.verdict == "Equivalent"
        assert "tail" in d.reason

    def test_word_vs_disjoint_tail(self):
        w12 = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        d = equivalent(w12, make_cuntz([q(1), q(0)]))
        assert d.verdict == "Inequivalent"

    def test_exact_vs_float_superposition_pair(self):
        # same depth-2 family, one basis word vs a two-word superposition:
        # the conjugacy scan separates them even across exact/float inputs
        w12 = make_sub_cuntz(2, {(1, 2): q(1)}, 2)
        v = 2 ** -0.5
        wf = make_sub_cuntz(2, [v, v, 0.0, 0.0], 2)
        assert equivalent(w12, wf).verdict == "Inequivalent"

    def test_word_state_and_shift_state_agree(self):
        w12 = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        d = equivalent(w12, shift_state((), (1, 2)))
        assert d.verdict == "Equivalent"

    def test_mirror_periods_are_inequivalent_shifts(self):
        d = equivalent(shift_state((), (1, 1, 2)), shift_state((), (2, 2, 1)))
        assert d.verdict == "Inequivalent"

    def test_purity_separates_sandwich_from_mixture(self):
        w = transform_sandwich(make_cuntz([q(1), q(0)]), [(1, gen(2, 2))])
        m = make_mixture(
            [make_cuntz([q(1), q(0)]), make_cuntz([q(0), q(1)])],
            [fr(1, 2), fr(1, 2)],
        )
        d = equivalent(w, m)
        assert d.verdict == "Inequivalent"
        assert "purity" in d.reason

    def test_unknown_when_no_rule_applies(self):
        w = transform_sandwich(make_cuntz([q(1), q(0)]), [(1, gen(2, 2))])
        w12 = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
        d = equivalent(w, w12)
        assert d.verdict == "Unknown"
        assert "no decision rule" in d.reason


def reference_tensor_conjugate(m: int, za: dict, zb: dict, n: int):
    """Equality, or a swap at some split, compared over every entry: at each
    split the pivot is the first entry of largest modulus, za must equal the
    pivot cross-products everywhere, and zb their swap."""
    words_m = list(all_words(n, m))
    if all(scalars_close(za[w], zb[w]) for w in words_m):
        return True, 0
    for t in range(1, m):
        rows = list(all_words(n, t))
        cols = list(all_words(n, m - t))
        pr, pc = max(((R, C) for R in rows for C in cols), key=lambda rc: abs(complex(za[rc[0] + rc[1]])))
        piv = za[pr + pc]
        if scalar_is_zero(piv):
            continue
        if not all(scalars_close(za[R + C] * piv, za[R + pc] * za[pr + C]) for R in rows for C in cols):
            continue
        if all(scalars_close(zb[C + R] * piv, za[pr + C] * za[R + pc]) for R in rows for C in cols):
            return True, t
    return False, None


_EXACT_ENTRIES = [q(1), q(0, 1), q(-1), q(fr(3, 5), fr(4, 5)), q(fr(-4, 5), fr(3, 5)), q(fr(1, 2)), q(fr(2, 3), -1)]
_PERTURBATION = {True: fr(1, 1000), False: 1e-12}


def _rotated(z: dict, t: int) -> dict:
    """The swap x2 (x) x1 of z = x1 (x) x2 split after t letters: w[t:] + w[:t] carries z[w]."""
    return {w[t:] + w[:t]: c for w, c in z.items()}


@st.composite
def tensor_pairs(draw, exact: bool):
    """(m, za, zb, n) over n = 2 or 3 and m = 2..4: one-word tensors with
    phases, rank-one products at every split and their rotations (a word
    added to one side or not), dense tensors that are not rank one,
    near-swaps, and sparse sums against rotations of some of their terms
    (a word added or not)."""
    n = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(2, 4 if n == 2 else 3))
    zero = draw(st.sampled_from([0, q(0)] if exact else [0, 0j]))
    entry = st.sampled_from(_EXACT_ENTRIES if exact else [complex(c) for c in _EXACT_ENTRIES])
    words = list(all_words(n, m))
    word = st.sampled_from(words)
    t = draw(st.integers(1, m - 1))
    # mostly the rotation at the split drawn, else any rotation (0 is equality)
    rotation = draw(st.one_of(st.just(t), st.integers(0, m - 1)))

    kind = draw(st.sampled_from(["one_word", "rank_one", "dense", "near_swap", "sparse"]))
    if kind == "one_word":
        w = draw(word)
        za = {w: draw(entry)}
        zb = {draw(st.one_of(st.just(w[rotation:] + w[:rotation]), word)): draw(entry)}
    elif kind in ("rank_one", "near_swap"):
        factors = [[draw(st.one_of(st.just(zero), entry)) for _ in all_words(n, k)] for k in (t, m - t)]
        for factor in factors:
            factor[draw(st.integers(0, len(factor) - 1))] = draw(entry)
        za = {R + C: a * b for R, a in zip(all_words(n, t), factors[0])
              for C, b in zip(all_words(n, m - t), factors[1])}
        zb = _rotated(za, rotation)
        if kind == "near_swap":
            w = draw(word)
            zb[w] = zb[w] + _PERTURBATION[exact]
        else:
            # a word added to one side, likely off the rectangle the other side spans
            side = draw(st.sampled_from([None, za, zb]))
            if side is not None:
                side[draw(word)] = draw(entry)
    elif kind == "dense":
        za = {w: draw(entry) for w in words}
        zb = _rotated(za, rotation) if draw(st.booleans()) else {w: draw(entry) for w in words}
    else:
        za = draw(st.dictionaries(word, entry, min_size=2, max_size=4))
        # the word of largest modulus alone is the rank-one part a pivot scan sees
        top = max(sorted(za), key=lambda w: abs(complex(za[w])))
        kept = draw(st.one_of(st.just({top}), st.sets(st.sampled_from(sorted(za)), min_size=1)))
        zb = _rotated({w: za[w] for w in kept}, rotation)
        if draw(st.booleans()):
            zb[draw(word)] = draw(entry)
    return m, {w: za.get(w, zero) for w in words}, {w: zb.get(w, zero) for w in words}, n


class TestTensorConjugacy:
    """The support-only scan decides as the all-pairs one above does, split
    included, in exact and in float arithmetic."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_matches_the_all_pairs_scan(self, exact):
        @given(tensor_pairs(exact))
        def check(case):
            m, za, zb, n = case
            assert _tensor_conjugate(m, za, zb) == reference_tensor_conjugate(m, za, zb, n)

        check()

    def test_a_swap_of_one_factor_of_a_sum_is_not_conjugate(self):
        # za = s_11 + s_22 is not a product; zb swaps only its first word
        za = {w: q(0) for w in all_words(2, 2)}
        za[(1, 1)] = za[(2, 2)] = q(1)
        zb = {w: q(0) for w in all_words(2, 2)}
        zb[(1, 1)] = q(1)
        assert _tensor_conjugate(2, za, zb) == reference_tensor_conjugate(2, za, zb, 2) == (False, None)

    def test_a_word_outside_the_swapped_rectangle_breaks_the_swap(self):
        za = {w: q(0) for w in all_words(2, 2)}
        za[(1, 2)] = q(1)
        zb = {w: q(0) for w in all_words(2, 2)}
        zb[(2, 1)] = q(1)
        assert _tensor_conjugate(2, za, zb) == (True, 1)
        zb[(2, 2)] = q(fr(1, 1000))
        assert _tensor_conjugate(2, za, zb) == reference_tensor_conjugate(2, za, zb, 2) == (False, None)


def _cli_doc(command, spec, spec_file, capsys) -> dict:
    """The JSON document ``cuntzlab <command> <spec> --format json`` prints."""
    import json

    from cuntzlab.cli import run

    assert run([command, spec_file(spec), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestSpectrumBuckets:
    """The bucket `report` prints: kappa, or "unresolved" without a certificate."""

    def test_finite_buckets(self, spec_file, capsys):
        cuntz = {"family": "cuntz", "z": ["3/5", "4/5"]}
        word12 = {"family": "prefix_code", "n": 2, "code": [[1, 2]], "z": [1]}
        assert _cli_doc("report", cuntz, spec_file, capsys)["bucket"] == 1
        assert _cli_doc("report", word12, spec_file, capsys)["bucket"] == 2

    def test_infinite_bucket(self, spec_file, capsys):
        grid = {"family": "vector", "rep": {"kind": "grid", "n": 2}, "key": [1, 0]}
        assert _cli_doc("report", grid, spec_file, capsys)["bucket"] == "infinite"

    def test_unresolved_bucket(self, spec_file, capsys):
        s2 = {"n": 2, "terms": [{"J": [2], "K": [], "re": 1}]}
        sandwich = {"family": "sandwich", "base": {"family": "cuntz", "z": [1, 0]}, "terms": [[1, s2]]}
        assert _cli_doc("report", sandwich, spec_file, capsys)["bucket"] == "unresolved"


class TestRepresentationInvariants:
    def test_grid_rep_is_properly_infinite(self):
        k = kappa_rep(GridRepresentation(2))
        assert k.value == inf
        assert isinstance(k.certificate, ProperlyInfinite)

    def test_shift_rep_period(self):
        k = kappa_rep(ShiftRepresentation(ep((), (1, 2))))
        assert k.value == 2
        assert k.certificate == ShiftPeriod(d=2)

    def test_endo_invariants(self, spec_file, capsys):
        # `rep` prints the endomorphism's powers index (n) and kappa
        doc = _cli_doc("rep", {"kind": "grid", "n": 2}, spec_file, capsys)
        assert (doc["powers_index"], doc["kappa"]["value"]) == (2, "infinite")

    def test_shift_endo_invariants(self, spec_file, capsys):
        doc = _cli_doc("rep", {"kind": "shift", "n": 2, "word": {"pre": [], "per": [1, 2]}}, spec_file, capsys)
        assert (doc["powers_index"], doc["kappa"]["value"]) == (2, 2)


class TestKappaKept:
    """kappa is kept on the state per (L_max, search_certificates,
    search_depth), so a state's certificate is checked once however many
    pairs ask for it."""

    @pytest.fixture
    def minimality_checks(self, monkeypatch):
        """The states whose minimality certificate is verified."""
        import cuntzlab.classify as classify

        checked = []

        def spy(omega, u, _verify=classify.verify_minimality_certificate):
            checked.append(omega)
            return _verify(omega, u)

        monkeypatch.setattr(classify, "verify_minimality_certificate", spy)
        return checked

    def test_a_pairwise_report_checks_each_state_once(self, minimality_checks, capsys):
        from cuntzlab.cli import run
        from test_golden import GOLDEN, PAIRWISE

        paths = [str(GOLDEN / "specs" / f"{name}.json") for name in PAIRWISE]
        assert run(["report", *paths, "--format", "json"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "pairwise.json").read_text(encoding="utf-8")
        assert minimality_checks
        assert len(minimality_checks) == len({id(omega) for omega in minimality_checks})

    def test_each_key_gets_the_result_of_a_fresh_state(self):
        # the trivial sandwich of the Cuntz state by (1, 0): only a search finds u = s_1
        def state():
            return transform_sandwich(make_cuntz([q(1), q(0)]), [(1, identity(2))])

        w = state()
        assert kappa(w).value is None
        assert kappa(w, search_certificates=True) == kappa(state(), search_certificates=True) == (1, Minimal(gen(2, 1)))
        # a rank that grows at every level: the lower bound names the level cap
        m = make_mixture([make_cuntz(Z35), make_split_series_sandwich()], [q(fr(1, 2)), q(fr(1, 2))])
        fresh = make_mixture([make_cuntz(Z35), make_split_series_sandwich()], [q(fr(1, 2)), q(fr(1, 2))])
        assert kappa(m, 3).certificate.level == 3
        assert kappa(m, 4) == kappa(fresh, 4)
        assert kappa(m, 4).certificate.level == 4
        assert kappa(m, 3) is kappa(m, 3)

    def test_bad_arguments_are_refused_after_a_kept_result(self):
        omega = make_cuntz(Z35)
        kappa(omega)
        with pytest.raises(SchemaError, match="^the level cap must be at least 1, got 0$"):
            kappa(omega, 0)
        with pytest.raises(SchemaError, match="^the search depth must be at least 1, got 0$"):
            kappa(omega, search_depth=0)

    def test_a_twist_reads_its_bases_kept_result(self, minimality_checks):
        base = make_sub_cuntz(2, {(1, 2): 1}, 2)
        k = kappa(base)
        assert isinstance(k.certificate, Minimal) and minimality_checks == [base]
        twisted = kappa(transform_gauge(base, G_C))
        assert twisted.value == k.value and minimality_checks == [base]
