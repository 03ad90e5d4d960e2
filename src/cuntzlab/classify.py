"""Invariants of states on O_n: cdim, kappa with certificates, purity, equivalence.

For a state omega with GNS triple (H, pi, Omega), the conjugate-cyclic
subspace is K = span{pi(s_J)* Omega}; ``cdim`` is its dimension, computed
from Gram matrices of moments through the identity

    <pi(s_J)* Omega, pi(s_K)* Omega> = omega(s_J s_K*).

``kappa`` is the minimum of cdim over all states whose GNS representations
are unitarily equivalent to omega's.  It is never guessed: a value is
reported only together with a certificate --

* ``Minimal(u)``: an isometry u in the creation span with omega(u) = 1
  forces K to be minimal, so kappa = cdim;
* ``ProperlyInfinite(a, cutoff)``: a sequence of isometries whose prefix
  products satisfy omega(a_1..a_l a_k*..a_1*) = delta_lk makes the class
  properly infinite, so kappa is infinite;
* ``ShiftPeriod(d)``: vector states of the shift representation of an
  eventually periodic word have kappa = d, the primitive period length;
* ``EquivalentToCuntz(z)``: equivalence to a Cuntz state gives kappa = 1;
* ``LowerBoundOnly``: everything else -- kappa stays an interval.

Every certificate, purity verdict and equivalence rule reads only the
:class:`~cuntzlab.moments.StateFacts` record each family constructor filled
(``omega.facts``), never the family label.  Decisions carry reasons naming
the deciding rule; pairs outside the classified catalog come back
``Unknown``.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm
from typing import NamedTuple

from .errors import AlphabetMismatch, NotInCatalog, SchemaError, ValidationFailed
from .linalg import LDLFactor, hermitian_transpose, mat_vec
from .moments import IsometrySequence, MomentFunctional, _check_table_words, _progression_code, isometries
from .scalars import abs2, conj, scalar_is_zero, scalars_close
from .shiftrep import GridRepresentation, ShiftRepresentation, vector_state
from .symalg import CuntzElement, gauge_apply, is_isometry_in_plus
from .words import Word, all_words, tail_equivalent

__all__ = [
    "CdimResult",
    "Minimal",
    "ProperlyInfinite",
    "ShiftPeriod",
    "EquivalentToCuntz",
    "LowerBoundOnly",
    "Certificate",
    "KappaResult",
    "PropInfCheck",
    "EquivDecision",
    "PurityDecision",
    "cdim",
    "kappa",
    "pure",
    "equivalent",
    "verify_minimality_certificate",
    "verify_properly_infinite",
    "kappa_rep",
]


# ---------------------------------------------------------------------------
# cdim: pivoted levelwise growth of the Gram matrix of {pi(s_J)* Omega}
# ---------------------------------------------------------------------------


class GramGrowth(NamedTuple):
    """Pivot basis of the conjugate-cyclic subspace, grown level by level.

    ``pivots`` are words J whose vectors pi(s_J)* Omega form a basis of the
    span reached so far; ``level_ranks[L]`` is the rank over all words of
    length <= L.  ``lower`` and ``dvals`` are the L and D of the factor
    G = L D L* of their (positive definite) Gram matrix G (see
    :class:`~cuntzlab.linalg.LDLFactor`).  ``children`` holds a pair
    (p + (i,), y) for each child of a pivot p that the growth scored: y is
    its forward solve L y = r, r_k = omega(s_{p_k} s_{p i}*), as it stood when
    the child was admitted (then y runs along the pivots before it) or
    dropped (along the pivots admitted by then).  ``fcs.presentation`` reads
    its matrices off these and the factor.  A growth is shared by every
    caller that asks for the same state, level cap and tolerance, so all of
    it is immutable.
    """

    pivots: tuple
    level_ranks: tuple
    stabilized: bool
    last_level: int
    lower: tuple
    dvals: tuple
    children: tuple


def gram_growth(omega: MomentFunctional, L_max: int = 8, tol: float | None = None) -> GramGrowth:
    """Grow a pivot basis of span{pi(s_J)* Omega : |J| <= L} for L = 0..L_max.

    Only one-letter extensions of current pivots can add new directions
    (pi(s_i)* maps the level-L span into the level-(L+1) span), so each level
    scores the children of the previous level's pivots on an
    :class:`~cuntzlab.linalg.LDLFactor` of ``omega.model.moment`` and admits
    them greedily, largest residual first with a lexicographic tie-break.  Float
    residuals within the rank tolerance times max(1, diag) of the largest
    are tied, so a float growth breaks ties as its exact twin does.  A level
    that admits nothing stabilizes the subspace for good.

    The finished growth is memoized on ``omega`` per (L_max, tol), so cdim,
    fcs and the first kappa of one state share it; ``kappa`` keeps its own
    result beside it, so a later one reads no growth.  Float rank decisions
    compare against ``tol`` (default DEFAULT_RANK_TOL) relative to
    max(1, diag); the library never passes it, but bench/tracer.py binds it
    by name.
    """
    _check_level_cap(L_max)
    key = (L_max, tol)
    growth = omega._growths.get(key)
    if growth is None:
        growth = omega._growths[key] = _grow(omega, L_max, tol)
    return growth


def _check_level_cap(L_max: int) -> None:
    if L_max < 1:
        raise SchemaError(f"the level cap must be at least 1, got {L_max}")


def _grow(omega: MomentFunctional, L_max: int, tol: float | None) -> GramGrowth:
    factor = LDLFactor(omega.model.moment)
    if tol is not None:
        factor.rank_tol = tol
    factor.admit(factor.score(()))
    level_ranks = [1]
    frontier: list[Word] = [()]
    children: list[tuple] = []
    stabilized = False
    level = 0
    for level in range(1, L_max + 1):
        cands = [factor.score(p + (i,)) for p in frontier for i in range(1, omega.n + 1)]
        # in word order, max() picks the lexicographically first of equal residuals
        cands.sort(key=lambda c: c.item)
        added: list[Word] = []
        while True:
            # residuals only shrink, so a candidate that fails once is out for good
            kept = []
            for c in cands:
                if factor.admissible(c):
                    kept.append(c)
                else:
                    children.append((c.item, tuple(c.y)))
            cands = kept
            if not cands:
                break
            best = max(cands, key=lambda c: c.res2)
            if not isinstance(best.res2, Fraction):
                # float residuals within the rank tolerance of the best are a tie
                floor = best.res2 - factor.rank_tol * max(1.0, best.diag)
                best = next(c for c in cands if c.res2 >= floor)
            cands.remove(best)
            factor.admit(best)
            children.append((best.item, tuple(best.y)))
            for c in cands:
                factor.catch_up(c)
            added.append(best.item)
        level_ranks.append(len(factor.pivots))
        if not added:
            stabilized = True
            break
        frontier = added
    return GramGrowth(tuple(factor.pivots), tuple(level_ranks), stabilized, level, tuple(map(tuple, factor.lower)),
                      tuple(factor.dvals), tuple(children))


class CdimResult(NamedTuple):
    """Rank of the conjugate-cyclic subspace with its stabilization status.

    ``status`` is "stabilized" when two consecutive levels agree (then the
    value is exact) and "lower_bound" when the level cap was hit first.
    ``level_ranks[L]`` is the rank over words of length <= L, including the
    repeated final level on stabilization.
    """

    value: int
    status: str
    level_ranks: tuple
    pivot_words: tuple = ()


def cdim(omega: MomentFunctional, L_max: int = 8) -> CdimResult:
    """Dimension of K = span{pi(s_J)* Omega}, grown level by level."""
    g = gram_growth(omega, L_max)
    status = "stabilized" if g.stabilized else "lower_bound"
    return CdimResult(len(g.pivots), status, g.level_ranks, g.pivots)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class Minimal(NamedTuple):
    """Isometry u in the creation span with omega(u) = 1: kappa = cdim."""

    u: CuntzElement
    kind = "minimal"


class ProperlyInfinite(NamedTuple):
    """Isometry sequence with delta-table omega(a_1..a_l a_k*..a_1*) = delta_lk.

    ``status`` is "proved" when the table holds at every order by the family's
    structure, "evidence" when it was only checked up to ``cutoff``.
    """

    a: IsometrySequence | None
    cutoff: int | None = None
    status: str = "proved"
    kind = "properly_infinite"


class ShiftPeriod(NamedTuple):
    """kappa = d for vector states of the shift of an eventually periodic word."""

    d: int
    kind = "shift_period"


class EquivalentToCuntz(NamedTuple):
    """The state is equivalent to the Cuntz state by z, so kappa = 1."""

    z: tuple
    provenance: str = "family"
    kind = "equivalent_to_cuntz"


class LowerBoundOnly(NamedTuple):
    """No certificate applies; the value is only bracketed, never guessed."""

    low: int
    high: object = inf
    level: int | None = None
    note: str = ""
    kind = "lower_bound_only"


Certificate = Minimal | ProperlyInfinite | ShiftPeriod | EquivalentToCuntz | LowerBoundOnly


class KappaResult(NamedTuple):
    value: object  # int | math.inf | None (unresolved)
    certificate: Certificate


def format_value(value) -> str:
    """A kappa-like value as text: the integer, "infinite", or "unresolved" for None."""
    if value is None:
        return "unresolved"
    return "infinite" if value == inf else str(value)


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------


def verify_minimality_certificate(omega: MomentFunctional, u: CuntzElement) -> bool:
    """True when u is an isometry in the creation span with omega(u) = 1.

    Such a u fixes the cyclic vector (pi(u) Omega = Omega by the equality case
    of Cauchy-Schwarz), which makes the conjugate-cyclic subspace minimal over
    the equivalence class: kappa = cdim.
    """
    if u.n != omega.n:
        raise SchemaError(f"certificate over n={u.n}, state over n={omega.n}")
    isometry, in_plus = is_isometry_in_plus(u)
    if not (isometry and in_plus):
        return False
    return scalars_close(omega.moment_of_element(u), 1)


class PropInfCheck(NamedTuple):
    """Outcome of a delta-table check.

    ``status``: "proved" when the checked sequence is the state's own and the
    family supplies the all-orders argument; "evidence" when the finite table
    holds but nothing beyond the cutoff is known; "failed" otherwise.  The
    boolean value of the result is True only for "proved".
    """

    ok: bool
    status: str
    table: tuple
    cutoff: int

    def __bool__(self) -> bool:
        return self.ok


def verify_properly_infinite(omega: MomentFunctional, a=None, cutoff: int = 12) -> PropInfCheck:
    """Check omega(a_1..a_l a_k*..a_1*) = delta_lk for l, k <= cutoff.

    ``a`` may be an isometry sequence attached by a family constructor or a
    plain sequence; omitted, the state's own attached sequence is used.
    ``moments.isometries`` reads a_1..a_cutoff and refuses a cutoff below 1,
    a short list, an element over another n and one that is not an isometry
    in the creation span (checked on the product a_i* a_i).

    With P_l = a_1..a_l the entry is <v(P_l), v(P_k)> for v(P) = pi(P)* Omega,
    stepped as v(P_l) = pi(a_l)* v(P_(l-1)) with pi(a)* = sum_W conj(b_W)
    pi(s_W)* for a = sum_W b_W s_W: cutoff steps of one a_i each, then
    cutoff^2 inner products over the state's ``model``.
    """
    flagged = omega.facts.sequence
    seq = a if a is not None else flagged
    if seq is None:
        raise SchemaError("no isometry sequence supplied and the state carries none")
    model = omega.model
    vectors = [model.vector(())]
    for ai in isometries(seq, cutoff, omega.n):
        vectors.append(model.adjoint_image(ai, vectors[-1]))

    table = []
    delta_ok = True
    for l in range(1, cutoff + 1):
        row = []
        for k in range(1, cutoff + 1):
            val = model.inner(vectors[l], vectors[k])
            row.append(val)
            if not scalars_close(val, 1 if l == k else 0):
                delta_ok = False
        table.append(tuple(row))

    analytic = (
        delta_ok
        and flagged is not None
        and flagged.status == "proved"
        and (a is None or a is flagged)
    )
    if analytic:
        status = "proved"
    elif delta_ok:
        status = "evidence"
    else:
        status = "failed"
    return PropInfCheck(analytic, status, tuple(table), cutoff)


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------


def _transport_certificate(cert: Certificate, g) -> Certificate:
    """Carry a certificate of omega over to omega o alpha_g.

    alpha_g is inverted by alpha of the conjugate transpose, so isometry data
    transports by substitution and Cuntz parameters by the adjoint matrix.
    """
    gH = hermitian_transpose(g)
    if isinstance(cert, Minimal):
        return Minimal(gauge_apply(gH, cert.u))
    if isinstance(cert, ProperlyInfinite) and cert.a is not None:
        seq = cert.a
        moved = seq._replace(factory=lambda i: gauge_apply(gH, seq.factory(i)),
                             description=seq.description + " (composed with the inverse gauge twist)")
        return ProperlyInfinite(moved, cert.cutoff, cert.status)
    if isinstance(cert, EquivalentToCuntz):
        return EquivalentToCuntz(tuple(mat_vec(gH, list(cert.z))), cert.provenance)
    return cert


def _search_minimal_isometry(omega: MomentFunctional, depth: int):
    """Bounded search for a prefix code P with sum_{W in P} |omega(s_W)|^2 = 1.

    Saturation of the Bessel inequality on a prefix code P means Omega lies in
    the span of {pi(s_W) Omega : W in P}, and u = sum conj(omega(s_W)) s_W is
    then an isometry with omega(u) = 1.  Candidates: the uniform codes of each
    order m <= depth and, for every letter, the codes {a^r i : i != a, r < k}
    + {a^k} for k <= depth.  A depth whose uniform codes exceed the table
    limit is refused before any word is listed.
    """
    n = omega.n
    _check_table_words(n, 1, depth, f"the uniform codes of a search to depth {depth} over {n} letters exceed")
    codes = [list(all_words(n, m)) for m in range(1, depth + 1)]
    for axis in range(1, n + 1):
        codes.extend(_progression_code(k, n, axis) for k in range(2, depth + 1))
    for code in codes:
        vals = {W: omega.model.moment(W, ()) for W in code}
        total = sum((abs2(v) for v in vals.values()), 0)
        if not scalars_close(total, 1):
            continue
        terms = {(W, ()): conj(v) for W, v in vals.items() if not scalar_is_zero(v)}
        u = CuntzElement(n, terms)
        if verify_minimality_certificate(omega, u):
            return u
    return None


def kappa(
    omega: MomentFunctional,
    L_max: int = 8,
    *,
    search_certificates: bool = False,
    search_depth: int = 3,
) -> KappaResult:
    """Minimum of cdim over the unitary-equivalence class, with a certificate.

    Read from ``omega.facts``, most specific first: a gauge twist delegates to
    its base (the invariant is unchanged; certificates transport through the
    inverse twist); a shift period d gives d; an isometry sequence known to
    an evidence horizon gives infinity as evidence to that horizon; a Cuntz
    parameter gives 1; a proved delta-table gives infinity; a verified
    minimality certificate pins kappa = cdim once the rank stabilizes; any
    other sequence gives infinity as evidence.  Anything else returns
    ``None`` with a ``LowerBoundOnly`` interval [low, high] -- never a guess.
    With ``search_certificates`` a bounded prefix-code search (depth
    ``search_depth``) tries to find a minimality certificate first; its
    failure is reported in the note.  The level cap and the search depth are
    checked whatever the facts say.

    kappa is an invariant of the state's GNS representation, so the result is
    kept on ``omega`` per (L_max, search_certificates, search_depth), beside
    its Gram growths: ``report`` and every ``equivalent`` pair that reaches
    the kappa rule share one result, and one minimality check, per state.  A
    twist keeps the transport of its base's kept result.
    """
    _check_level_cap(L_max)
    if search_depth < 1:
        raise SchemaError(f"the search depth must be at least 1, got {search_depth}")
    key = (L_max, search_certificates, search_depth)
    result = omega._kappas.get(key)
    if result is None:
        result = omega._kappas[key] = _kappa(omega, L_max, search_certificates, search_depth)
    return result


def _kappa(omega: MomentFunctional, L_max: int, search_certificates: bool, search_depth: int) -> KappaResult:
    facts = omega.facts
    if facts.twist is not None:
        base, g = facts.twist
        inner = kappa(base, L_max, search_certificates=search_certificates, search_depth=search_depth)
        return KappaResult(inner.value, _transport_certificate(inner.certificate, g))
    if facts.shift_period is not None:
        return KappaResult(facts.shift_period, ShiftPeriod(facts.shift_period))
    seq = facts.sequence
    if seq is not None and seq.horizon is not None:
        return KappaResult(inf, ProperlyInfinite(seq, cutoff=seq.horizon, status="evidence"))
    if facts.cuntz is not None:
        return KappaResult(1, EquivalentToCuntz(*facts.cuntz))
    if seq is not None and seq.status == "proved":
        return KappaResult(inf, ProperlyInfinite(seq, cutoff=None, status="proved"))

    searched = False
    u = facts.minimal_isometry
    if u is None and search_certificates:
        searched = True
        u = _search_minimal_isometry(omega, search_depth)
    if u is not None and verify_minimality_certificate(omega, u):
        g = gram_growth(omega, L_max)
        if g.stabilized:
            return KappaResult(len(g.pivots), Minimal(u))
        return KappaResult(
            None,
            LowerBoundOnly(
                len(g.pivots), inf, level=g.last_level,
                note="a minimality certificate verified, so kappa equals cdim, "
                     "but the rank did not stabilize below the level cap",
            ),
        )

    if seq is not None:
        return KappaResult(inf, ProperlyInfinite(seq, cutoff=12, status="evidence"))

    g = gram_growth(omega, L_max)
    high = len(g.pivots) if g.stabilized else inf
    note = "no certificate applies to this presentation"
    if searched:
        note += f"; a prefix-code search up to depth {search_depth} found no certificate"
    return KappaResult(None, LowerBoundOnly(1, high, level=g.last_level, note=note))


# ---------------------------------------------------------------------------
# Purity
# ---------------------------------------------------------------------------


class PurityDecision(NamedTuple):
    """Verdict "Pure" | "NotPure" | "Unknown" with the deciding rule."""

    verdict: str
    reason: str


def pure(omega: MomentFunctional) -> PurityDecision:
    """The purity verdict the state's constructor decided, with its reason.

    The verdict is fixed at construction; outside the decided families it
    is Unknown.
    """
    return PurityDecision(*omega.facts.purity)


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


class EquivDecision(NamedTuple):
    """Verdict "Equivalent" | "Inequivalent" | "Unknown" with the deciding rule."""

    verdict: str
    reason: str


def _tensor_conjugate(m: int, za: dict, zb: dict):
    """Decide whether zb = za, or zb is the swap x2 (x) x1 of some splitting
    za = x1 (x) x2.  Returns (conjugate, split position or 0 for equality).

    The swap is compared through pivot cross-products, which stay in exact
    arithmetic and absorb the reciprocal-scalar freedom of the factors.  The
    pivot is the first entry of largest modulus (in word order), so at a
    split after t letters it is za[pr + pc] with |pr| = t.  A pair (R, C)
    whose cross-product za[R + pc] * za[pr + C] has an exact-zero factor
    compares za[R + C] (or zb[C + R]) times the pivot with an exact zero,
    which holds wherever that entry is zero.  So only the rectangle of rows R
    with za[R + pc] != 0 and columns C with za[pr + C] != 0 is compared in
    full, and off it only the nonzero entries of za and zb: the work is the
    tensors' support, not all n^m entries at each split.
    """
    support_a = sorted(w for w, c in za.items() if c != 0)
    support_b = [w for w, c in zb.items() if c != 0]
    if all(scalars_close(za[w], zb[w]) for w in set(support_a).union(support_b)):
        return True, 0
    pivot = max(support_a, key=lambda w: abs(complex(za[w])), default=None)
    if pivot is None or scalar_is_zero(za[pivot]):
        return False, None
    piv = za[pivot]
    for t in range(1, m):
        pr, pc = pivot[:t], pivot[t:]
        rows = [w[:t] for w in support_a if w[t:] == pc]
        cols = [w[t:] for w in support_a if w[:t] == pr]
        rectangle = [(R, C) for R in rows for C in cols]
        # za = x1 (x) x2: every (R, C) of the rectangle or of za's support
        if not all(
            scalars_close(za[R + C] * piv, za[R + pc] * za[pr + C])
            for R, C in set(rectangle).union((w[:t], w[t:]) for w in support_a)
        ):
            continue
        # zb should be the swapped product: zb[C + R] * piv == za[pr + C] * za[R + pc]
        if all(
            scalars_close(zb[C + R] * piv, za[pr + C] * za[R + pc])
            for R, C in set(rectangle).union((w[m - t:], w[:m - t]) for w in support_b)
        ):
            return True, t
    return False, None


def _blocks_parallel(a, b) -> bool:
    inner = sum((conj(x) * y for x, y in zip(a, b)), 0)
    return scalars_close(abs2(inner), 1)


def _tails_parallel(first, second, k: int) -> bool:
    """Whether first^(l) is parallel to second^(l+k) for all large l.

    Both sequences are eventually periodic in l, so it is enough to test one
    joint period beyond both preperiods.
    """
    period = lcm(len(first.rep), len(second.rep))
    start = max(len(first.pre), len(second.pre) - k) + 1
    return all(
        _blocks_parallel(first.at(l), second.at(l + k)) for l in range(start, start + period)
    )


def _induced_series_shift(b1, b2):
    """Smallest shift aligning the inducing sequences up to phases, or None.

    The overlap series sum_l (1 - |<z^(l), y^(l+k)>|) converges exactly when
    all but finitely many terms vanish; for eventually periodic data the shift
    only matters through finitely many alignments, scanned in both directions.
    """
    period = lcm(len(b1.rep), len(b2.rep))
    span = len(b1.pre) + len(b2.pre) + period
    for k in range(span + 1):
        if _tails_parallel(b1, b2, k) or _tails_parallel(b2, b1, k):
            return k
    return None


def _kappa_certified(result: KappaResult) -> bool:
    if result.value is None:
        return False
    cert = result.certificate
    if isinstance(cert, ProperlyInfinite) and cert.status != "proved":
        return False
    return True


def equivalent(omega1: MomentFunctional, omega2: MomentFunctional, L_max: int = 8) -> EquivDecision:
    """Decide unitary equivalence of the GNS representations from the facts.

    The rules, in order, each applying when both records hold its fact:
    shared Cuntz parameters (two states each equivalent
    to a Cuntz state are equivalent exactly when the parameters agree);
    shared shift classes (tail equivalence of the defining words); tensor
    conjugacy of uniquely determined word-moment states; parameter equality
    for uniquely determined progression states on the same code; the exact
    overlap-series criterion for induced product states; and separation by
    the certified invariants kappa and purity.  Everything else is Unknown.
    The tensor rule compares only the support of the two tensors at each
    split (see ``_tensor_conjugate``), not all n^m entries.
    ``L_max`` caps the Gram growth behind kappa, and is checked whichever
    rule decides.  Each state's kappa is the one ``kappa`` keeps on it, so a
    state met in many pairs has its certificate checked once.
    """
    _check_level_cap(L_max)
    if omega1.n != omega2.n:
        raise AlphabetMismatch(f"states live on O_{omega1.n} and O_{omega2.n}")

    f1, f2 = omega1.facts, omega2.facts
    if f1.cuntz is not None and f2.cuntz is not None:
        (z1, p1), (z2, p2) = f1.cuntz, f2.cuntz
        trust = "" if "user" not in (p1, p2) else " (relies on a user-declared equivalence, taken on trust)"
        if all(scalars_close(a, b) for a, b in zip(z1, z2)):
            return EquivDecision(
                "Equivalent",
                "both states are equivalent to the Cuntz state with the same parameter vector" + trust,
            )
        return EquivDecision(
            "Inequivalent",
            "the states are equivalent to Cuntz states with different parameter vectors, "
            "and distinct Cuntz states are inequivalent" + trust,
        )

    if f1.tail_class is not None and f2.tail_class is not None:
        if tail_equivalent(f1.tail_class, f2.tail_class):
            return EquivDecision(
                "Equivalent",
                "the defining infinite words are tail equivalent, so both states are "
                "vector states of the same irreducible shift representation",
            )
        return EquivDecision(
            "Inequivalent",
            "the defining infinite words lie in different tail classes, so the shift "
            "representations are disjoint",
        )

    if f1.tensor is not None and f2.tensor is not None:
        (m1, za), (m2, zb) = f1.tensor, f2.tensor
        if m1 != m2:
            return EquivDecision(
                "Inequivalent",
                "uniquely determined word-moment states of different orders are never "
                "equivalent (conjugate tensors have equal orders)",
            )
        conjugate, split = _tensor_conjugate(m1, za, zb)
        if conjugate and split == 0:
            return EquivDecision("Equivalent", "the defining tensors coincide")
        if conjugate:
            return EquivDecision(
                "Equivalent",
                f"the defining tensors are conjugate: swapping the factors split after "
                f"{split} letter(s) carries one to the other",
            )
        return EquivDecision(
            "Inequivalent",
            "the defining tensors are not conjugate at any split, and uniquely "
            "determined word-moment states are equivalent exactly when conjugate",
        )

    p1, p2 = f1.progression, f2.progression
    if p1 is not None and p2 is not None and p1[0] == p2[0]:
        if all(scalars_close(a, b) for a, b in zip(p1[1], p2[1])):
            return EquivDecision("Equivalent", "same parameter vector on the same progression code")
        return EquivDecision(
            "Inequivalent",
            "uniquely determined progression states on the same code are equivalent "
            "only when the parameter vectors coincide",
        )

    if f1.induced is not None and f2.induced is not None:
        k = _induced_series_shift(f1.induced, f2.induced)
        if k is not None:
            return EquivDecision(
                "Equivalent",
                f"after a shift of {k} the inducing sequences are blockwise parallel, "
                "so the overlap series converges",
            )
        return EquivDecision(
            "Inequivalent",
            "no finite shift makes the inducing sequences eventually parallel, so every "
            "overlap series diverges",
        )

    k1 = kappa(omega1, L_max)
    k2 = kappa(omega2, L_max)
    if _kappa_certified(k1) and _kappa_certified(k2) and k1.value != k2.value:
        low, high = sorted((k1.value, k2.value), key=float)
        return EquivDecision(
            "Inequivalent",
            f"the invariant kappa separates the states ({format_value(low)} vs "
            f"{format_value(high)}); equivalent states share kappa",
        )
    pu1 = pure(omega1)
    pu2 = pure(omega2)
    if "Unknown" not in (pu1.verdict, pu2.verdict) and pu1.verdict != pu2.verdict:
        return EquivDecision(
            "Inequivalent",
            "one state is pure and the other is not; purity is preserved by unitary equivalence",
        )
    return EquivDecision("Unknown", "no decision rule covers this pair of presentations")


# ---------------------------------------------------------------------------
# Representation-level wrappers
# ---------------------------------------------------------------------------


def kappa_rep(rep, L_max: int = 8) -> KappaResult:
    """kappa of an irreducible catalog representation.

    The value is kappa of any unit vector state; independence of the choice
    is asserted on the representation's sample basis vectors.
    """
    if not isinstance(rep, (ShiftRepresentation, GridRepresentation)):
        raise NotInCatalog(f"no kappa rule for representations of type {type(rep).__name__}")
    results = [kappa(vector_state(rep, key), L_max) for key in rep.sample_keys()]
    if len({r.value for r in results}) != 1:
        raise ValidationFailed("kappa must not depend on the sampled vector")
    return results[0]
