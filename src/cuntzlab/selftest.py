"""Built-in end-to-end checks, runnable as ``cuntzlab selftest``.

Each criterion exercises one advertised capability on randomized instances
(seeded from ``GATE_SEED`` unless a seed is given, so runs are
reproducible) and returns an honest pass/fail with a detail string.  The
test suite runs the same callables at the same seed, so ``cuntzlab
selftest`` agrees with pytest by construction.

Random exact inputs come from stereographic projection: a rational point
p in Q^{2n-1} maps to (2p, |p|^2 - 1)/(|p|^2 + 1), a unit vector in Q^{2n}
on the nose, read as n Gaussian-rational coordinates.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product
from math import inf
from typing import Callable, NamedTuple

from .classify import (
    EquivalentToCuntz,
    LowerBoundOnly,
    Minimal,
    ProperlyInfinite,
    ShiftPeriod,
    cdim,
    equivalent,
    kappa,
    verify_minimality_certificate,
    verify_properly_infinite,
)
from .linalg import mat_mul, rank
from .moments import (
    gram_matrix,
    hat_parameter,
    make_cuntz,
    make_geometric_progression,
    make_induced_product,
    make_split_series_sandwich,
    make_sub_cuntz,
    positivity_check,
    transform_gauge,
    transform_sandwich,
)
from .scalars import QQi, abs2, conj, is_exact_scalar, scalars_close
from .shiftrep import GridRepresentation, ShiftRepresentation, vector_state
from .symalg import monomial
from .words import EventuallyPeriodicWord, all_words, words_upto

__all__ = ["CriterionResult", "CRITERIA", "GATE_SEED", "run_all", "random_exact_unit"]

# the acceptance gate's seed; `cuntzlab selftest` runs at it unless --seed is given
GATE_SEED = 20260814


class CriterionResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# Randomized exact inputs
# ---------------------------------------------------------------------------

_PHASES = (
    QQi(1, 0),
    QQi(0, 1),
    QQi(-1, 0),
    QQi(0, -1),
    QQi(Fraction(3, 5), Fraction(4, 5)),
    QQi(Fraction(3, 5), Fraction(-4, 5)),
    QQi(Fraction(-4, 5), Fraction(3, 5)),
    QQi(Fraction(5, 13), Fraction(12, 13)),
)


def random_exact_unit(rng: random.Random, n: int, open_last: bool = False) -> list[QQi]:
    """A random unit vector in Q(i)^n; with open_last, require |z_n| < 1."""
    while True:
        p = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2 * n - 1)]
        s = sum(q * q for q in p)
        coords = [2 * q / (s + 1) for q in p] + [(s - 1) / (s + 1)]
        z = [QQi(coords[2 * j], coords[2 * j + 1]) for j in range(n)]
        if open_last and abs2(z[-1]) == 1:
            continue
        return z


def _random_word(rng: random.Random, n: int, max_len: int) -> tuple:
    return tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_len)))


def _exact_unitary(rng: random.Random, n: int):
    """A random product of exact phase diagonals and Pythagorean rotations."""
    rotations = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)))
    out = [[QQi(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(3):
        kind = rng.randrange(3)
        m = [[QQi(1 if i == j else 0) for j in range(n)] for i in range(n)]
        if kind == 0:
            for i in range(n):
                m[i][i] = rng.choice(_PHASES)
        else:
            c, s = rotations[kind - 1]
            i = rng.randrange(n - 1)
            m[i][i] = QQi(c)
            m[i][i + 1] = QQi(s)
            m[i + 1][i] = QQi(-s)
            m[i + 1][i + 1] = QQi(c)
        out = mat_mul(out, m)
    return out


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def _criterion_cuntz_cdim_one(rng: random.Random):
    for trial in range(20):
        n = rng.choice((2, 3))
        res = cdim(make_cuntz(random_exact_unit(rng, n)))
        if not (res.value == 1 and res.status == "stabilized" and set(res.level_ranks) == {1}):
            return False, f"trial {trial}: cdim {res.value} ({res.status}) over n={n}, expected 1 stabilized"
    return True, "20 random exact product states: cdim 1, stabilized, exact equality"


def _criterion_sandwich_interval(rng: random.Random):
    base = make_cuntz([QQi(1), QQi(0)])
    term = [(QQi(1), monomial(2, (2,)))]
    squeezed = transform_sandwich(base, term)
    res = cdim(squeezed)
    if not (res.value == 2 and res.status == "stabilized"):
        return False, f"cdim {res.value} ({res.status}), expected 2 stabilized"
    kres = kappa(squeezed)
    cert = kres.certificate
    if not (
        kres.value is None
        and isinstance(cert, LowerBoundOnly)
        and cert.low == 1
        and cert.high == 2
    ):
        return False, f"kappa should be unresolved in [1, 2], got {kres!r}"
    declared = transform_sandwich(base, term, equivalent_to_cuntz=[QQi(1), QQi(0)])
    k2 = kappa(declared)
    if not (
        k2.value == 1
        and isinstance(k2.certificate, EquivalentToCuntz)
        and k2.certificate.provenance == "user"
    ):
        return False, f"with a declared equivalence kappa should be 1 (user), got {k2!r}"
    return True, "squeezed state: cdim 2 exact, kappa honestly in [1, 2]; user declaration pins kappa 1"


def _own_isometry_verified(st) -> bool:
    u = st.facts.minimal_isometry
    return u is not None and verify_minimality_certificate(st, u)


def _criterion_conjugate_words(rng: random.Random):
    w12 = make_sub_cuntz(2, {(1, 2): QQi(1)}, 2)
    w21 = make_sub_cuntz(2, {(2, 1): QQi(1)}, 2)
    for st in (w12, w21):
        if not _own_isometry_verified(st):
            return False, "the defining isometry failed the minimality check"
        res = cdim(st)
        if not (res.value == 2 and res.status == "stabilized"):
            return False, f"cdim {res.value} ({res.status}), expected 2 stabilized"
        kres = kappa(st)
        if not (kres.value == 2 and isinstance(kres.certificate, Minimal)):
            return False, f"kappa {kres.value}, expected 2 with a minimality certificate"
    dec = equivalent(w12, w21)
    if dec.verdict != "Equivalent":
        return False, f"{dec.verdict} ({dec.reason}), expected Equivalent"
    cross = w21.moment((1, 2), ())
    if not (is_exact_scalar(cross) and scalars_close(cross, 0)):
        return False, f"omega'(s_1 s_2) = {cross!r}, expected exact 0"
    return True, "word states 12 and 21: minimal, cdim 2, equivalent; cross moment vanishes exactly"


def _criterion_exact_vs_float(rng: random.Random):
    w12 = make_sub_cuntz(2, {(1, 2): QQi(1)}, 2)
    r = 2 ** -0.5
    wf = make_sub_cuntz(2, [r, r, 0.0, 0.0], 2)
    for st, tag in ((w12, "exact"), (wf, "float")):
        kres = kappa(st)
        if not (kres.value == 2 and isinstance(kres.certificate, Minimal)):
            return False, f"{tag} state: kappa {kres.value}, expected 2 with a minimality certificate"
    dec = equivalent(w12, wf)
    if dec.verdict != "Inequivalent":
        return False, f"{dec.verdict} ({dec.reason}), expected Inequivalent"
    return True, "exact word state vs float superposition: kappa 2 both, inequivalent"


def _criterion_phase_family(rng: random.Random):
    for d in (2, 3, 4, 5):
        word = (2,) * (d - 1) + (1,)
        states = [make_sub_cuntz(d, {word: conj(c)}, 2) for c in _PHASES]
        for c, st in zip(_PHASES, states):
            res = cdim(st)
            if not (res.value == d and res.status == "stabilized" and st.exact):
                return False, f"d={d}, phase {c}: cdim {res.value} ({res.status}), expected {d} stabilized"
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                dec = equivalent(states[i], states[j])
                if dec.verdict != "Inequivalent":
                    return False, f"d={d}, phases {i} vs {j}: {dec.verdict}, expected Inequivalent"
    return True, "phase-marked depth-d states, d in 2..5: cdim d exact; all 28 pairs per depth inequivalent"


def _criterion_progression(rng: random.Random):
    k, n = 3, 2
    for trial in range(10):
        z = random_exact_unit(rng, (n - 1) * k + 1, open_last=True)
        st = make_geometric_progression(k, z, n)
        res = cdim(st)
        if not (res.status == "stabilized" and res.value <= k):
            return False, f"trial {trial}: cdim {res.value} ({res.status}), expected stabilized <= {k}"
        if not _own_isometry_verified(st):
            return False, f"trial {trial}: the defining isometry failed the minimality check"
        kres = kappa(st)
        if kres.value is None or kres.value > res.value:
            return False, f"trial {trial}: kappa {kres.value} exceeds cdim {res.value}"
    y = random_exact_unit(rng, n, open_last=True)
    hatted = make_geometric_progression(k, hat_parameter(y, k), n)
    res = cdim(hatted)
    kres = kappa(hatted)
    if not (res.value == 1 and res.status == "stabilized"):
        return False, f"hat parameter: cdim {res.value} ({res.status}), expected 1 stabilized"
    if not (kres.value == 1 and isinstance(kres.certificate, EquivalentToCuntz)):
        return False, f"hat parameter: kappa {kres!r}, expected 1 with a recovered Cuntz parameter"
    return True, "10 random progression states: stabilized cdim <= 3 with verified minimality; hat parameter gives cdim 1"


def _criterion_delta_tables(rng: random.Random):
    grid = vector_state(GridRepresentation(2), (1, 0))
    chk = verify_properly_infinite(grid, cutoff=12)
    if not (chk.ok and chk.status == "proved"):
        return False, f"grid vector: delta table status {chk.status}, expected proved"
    for l in range(12):
        for k in range(12):
            want = 1 if l == k else 0
            if not scalars_close(chk.table[l][k], want):
                return False, f"grid table entry ({l + 1},{k + 1}) = {chk.table[l][k]!r}, expected {want}"
    kg = kappa(grid)
    if not (kg.value == inf and isinstance(kg.certificate, ProperlyInfinite) and kg.certificate.status == "proved"):
        return False, f"grid vector: kappa {kg!r}, expected proved infinite"
    for trial in range(5):
        pre = [random_exact_unit(rng, 2) for _ in range(rng.randint(0, 2))]
        rep = [random_exact_unit(rng, 2) for _ in range(rng.randint(1, 3))]
        st = make_induced_product(pre, rep, 2)
        chk = verify_properly_infinite(st, cutoff=6)
        if not (chk.ok and chk.status == "proved"):
            return False, f"trial {trial}: induced product delta table status {chk.status}, expected proved"
        kres = kappa(st)
        if not (
            kres.value == inf
            and isinstance(kres.certificate, ProperlyInfinite)
            and kres.certificate.status == "proved"
        ):
            return False, f"trial {trial}: kappa {kres!r}, expected proved infinite"
    return True, "grid delta table exact to cutoff 12; 5 random induced products proved properly infinite"


def _criterion_series_state(rng: random.Random):
    st = make_split_series_sandwich()
    kres = kappa(st)
    if not (kres.value == 1 and isinstance(kres.certificate, EquivalentToCuntz)):
        return False, f"kappa {kres!r}, expected 1 with a Cuntz equivalence"
    for L in range(1, 7):
        words = list(all_words(2, L))
        G = gram_matrix(st, words)
        if not all(is_exact_scalar(v) for row in G for v in row):
            return False, f"level {L}: the Gram matrix left exact arithmetic"
        r = rank(G)
        if r != L + 1:
            return False, f"level {L}: Gram rank {r}, expected {L + 1}"
    return True, "series state: kappa 1 by equivalence while the exact level-L Gram rank is L+1 for L = 1..6"


def _criterion_shift_dictionary(rng: random.Random):
    seen = set()
    for pre_len in range(3):
        for pre in product((1, 2), repeat=pre_len):
            for per_len in range(1, 5):
                for per in product((1, 2), repeat=per_len):
                    seen.add(EventuallyPeriodicWord(pre, per, 2))
    checked = 0
    for x in sorted(seen, key=lambda w: (len(w.pre), w.pre, len(w.per), w.per)):
        st = vector_state(ShiftRepresentation(x), x)
        res = cdim(st)
        want = x.preperiod_length + x.period_length
        if not (res.value == want and res.status == "stabilized"):
            return False, f"{x!r}: cdim {res.value} ({res.status}), expected {want}"
        kres = kappa(st)
        if not (kres.value == x.period_length and isinstance(kres.certificate, ShiftPeriod)):
            return False, f"{x!r}: kappa {kres.value}, expected the period {x.period_length}"
        if x.is_purely_periodic:
            if not _own_isometry_verified(st):
                return False, f"{x!r}: purely periodic but no verified minimality certificate"
        elif st.facts.minimal_isometry is not None:
            return False, f"{x!r}: not purely periodic yet a minimality certificate is attached"
        checked += 1
    return True, f"{checked} canonical eventually periodic words: cdim = preperiod + period, kappa = period, minimal iff purely periodic"


def _criterion_structure(rng: random.Random):
    x = EventuallyPeriodicWord((2,), (1, 2), 2)
    states = [
        ("cuntz", make_cuntz(random_exact_unit(rng, 2))),
        ("sub_cuntz", make_sub_cuntz(2, random_exact_unit(rng, 4), 2)),
        ("geometric_progression", make_geometric_progression(2, random_exact_unit(rng, 3, open_last=True), 2)),
        (
            "induced_product",
            make_induced_product([random_exact_unit(rng, 2)], [random_exact_unit(rng, 2), random_exact_unit(rng, 2)], 2),
        ),
        ("shift", vector_state(ShiftRepresentation(x), x)),
    ]
    for name, st in states:
        for _ in range(12):
            J = _random_word(rng, 2, 3)
            K = _random_word(rng, 2, 3)
            if not scalars_close(st.moment(J, K), conj(st.moment(K, J))):
                return False, f"{name}: Hermitian symmetry fails at J={J}, K={K}"
            row = sum((st.moment(J + (i,), K + (i,)) for i in (1, 2)), 0)
            if not scalars_close(row, st.moment(J, K)):
                return False, f"{name}: the row identity sum_i omega(s_J s_i (s_K s_i)*) fails at J={J}, K={K}"
        ok, witness = positivity_check(st, 2)
        if not ok:
            return False, f"{name}: level-2 moment matrix not PSD (witness {witness})"
        base_kappa = kappa(st)
        base_ranks = cdim(st, 2).level_ranks
        for _ in range(10):
            g = _exact_unitary(rng, 2)
            twisted = transform_gauge(st, g)
            if kappa(twisted).value != base_kappa.value:
                return False, f"{name}: kappa changed under a gauge twist"
            if cdim(twisted, 2).level_ranks != base_ranks:
                return False, f"{name}: level ranks changed under a gauge twist"

    sub = make_sub_cuntz(2, {(1, 2): QQi(1)}, 2)
    sh = vector_state(ShiftRepresentation(EventuallyPeriodicWord((), (1, 2), 2)), EventuallyPeriodicWord((), (1, 2), 2))
    for J in words_upto(2, 4):
        for K in words_upto(2, 4):
            if not scalars_close(sub.moment(J, K), sh.moment(J, K)):
                return False, f"word-state/shift oracle mismatch at J={J}, K={K}"
    if equivalent(sub, sh).verdict != "Equivalent":
        return False, "the word state and its shift realization were not recognized as equivalent"
    sub3 = make_sub_cuntz(3, {(1, 1, 2): QQi(1)}, 2)
    x3 = EventuallyPeriodicWord((), (1, 1, 2), 2)
    sh3 = vector_state(ShiftRepresentation(x3), x3)
    for _ in range(300):
        J = _random_word(rng, 2, 6)
        K = _random_word(rng, 2, 6)
        if not scalars_close(sub3.moment(J, K), sh3.moment(J, K)):
            return False, f"order-3 oracle mismatch at J={J}, K={K}"

    for p in (2, 3):
        v = random_exact_unit(rng, 2)
        z = {}
        for W in product((1, 2), repeat=p):
            c = QQi(1)
            for w in W:
                c = c * v[w - 1]
            z[W] = c
        st = make_sub_cuntz(p, z, 2)
        if st.facts.solution_dim != p:
            return False, f"tensor power p={p}: solution dimension {st.facts.solution_dim}, expected {p}"
    return True, (
        "symmetry, row identity, positivity, and gauge invariance hold on 5 families; "
        "word states match their shift realizations exactly; tensor powers report their multiplicity"
    )


CRITERIA: list[tuple[str, Callable]] = [
    ("cuntz_states_cdim_one", _criterion_cuntz_cdim_one),
    ("sandwich_interval_then_user_equivalence", _criterion_sandwich_interval),
    ("conjugate_word_states_equivalent", _criterion_conjugate_words),
    ("exact_vs_float_pair_separated", _criterion_exact_vs_float),
    ("phase_marked_states_separate", _criterion_phase_family),
    ("progression_minimality_and_closing_parameter", _criterion_progression),
    ("delta_tables_prove_properly_infinite", _criterion_delta_tables),
    ("series_state_kappa_one_rank_grows", _criterion_series_state),
    ("shift_word_dictionary", _criterion_shift_dictionary),
    ("structural_identities_and_gauge_invariance", _criterion_structure),
]


def run_all(seed: int = GATE_SEED) -> list[CriterionResult]:
    results = []
    for offset, (name, fn) in enumerate(CRITERIA):
        rng = random.Random(seed + offset)
        start = time.perf_counter()
        try:
            ok, detail = fn(rng)
        except Exception as e:  # honest red: a crash is a failure, not a skip
            ok, detail = False, f"{type(e).__name__}: {e}"
        results.append(CriterionResult(name, ok, detail, time.perf_counter() - start))
    return results
