"""Moment functionals of states on O_n and their concrete families.

A state omega is represented by its moments omega(s_J s_K*), exposed through
:class:`MomentFunctional`.  Each family constructor also fills one frozen
:class:`StateFacts` record, ``omega.facts``, with what the family proves about
its state; the classification layer reads that record and never the family
label.  Which constructor fills which fact:

* ``make_cuntz(z)``               -- omega(s_J s_K*) = conj(z_J) z_K, the
                                     order-1 case.  Purity, the Cuntz parameter
                                     z, the tail class (i)^inf when z = e_i, the
                                     order-1 tensor and the minimal isometry
                                     u = sum_j z_j s_j.
* ``make_prefix_code_state(P,z)`` -- the state(s) fixed by the isometry
                                     u = sum_W z_W s_W over a finite prefix
                                     code P; covers uniform codes
                                     (``make_sub_cuntz``, order-m states) and
                                     progression codes
                                     (``make_geometric_progression``).  The
                                     minimal isometry u and the solution
                                     dimension; for a unique solution the tail
                                     class W^inf of a single code word with
                                     coefficient 1, and the tensor (uniform
                                     codes) or the parameter (progression
                                     codes); the purity of both code shapes;
                                     the Cuntz parameter y when a progression
                                     parameter is hat_parameter(y, k).  Both
                                     step the suffix model of their code.
* ``make_induced_product(...)``   -- product states induced from a sequence of
                                     unit vectors, nonzero only on balanced
                                     monomials.  The inducing blocks, a proved
                                     isometry sequence, purity (not pure) and
                                     a vector model.
* ``make_mixture(...)``           -- convex combinations; purity (not pure);
                                     the direct sum of the components' models.
* ``transform_gauge``             -- omega o alpha_g.  The twist (omega, g);
                                     from the base only its Cuntz parameter
                                     (moved by g^H) and its purity; the
                                     base's model, twisted.
* ``transform_sandwich``          -- isometric sandwiches.  Purity when the
                                     base is decided pure; a user-declared
                                     Cuntz parameter; pi(A) Omega's model.
* ``make_split_series_sandwich()``-- the series sandwich sum_l 2^-l
                                     omega(A_l* . A_l) with A_l = s_2^{l-1} s_1 s_2^l
                                     over the Cuntz state by (1,0).  Purity and
                                     the Cuntz parameter (1,0); the direct sum
                                     over l of its permutative models.
* ``shiftrep.vector_state``       -- vector states of the shift and grid
                                     representations: purity, shift period,
                                     tail class, minimal isometry or isometry
                                     sequence, and a vector model.

Facts that depend on a float comparison (the Cuntz parameter of a
progression state, the tail class of a single-support state) are decided at
construction with the fixed tolerance ``scalars.DEFAULT_EQ_TOL``, the same
one classification uses, so the two always agree.

Inner products are linear in the second argument throughout, so
omega(s_J s_K*) = <pi(s_J)* Omega, pi(s_K)* Omega>.  A state is its
:class:`VectorModel` of these vectors, memoized by prefix, ``omega.model``:
the one reader of its moments.  ``model.moment`` and ``model.gram`` apply
the model's ``cast``, which fixes each moment's type (``_as_qqi`` for exact
mixtures, sandwiches and twists, ``_as_complex`` for float twists).  Every
family constructor hands its model to ``MomentFunctional`` as the moment
function; any other function is read through its ``word_model``, whose
inner products fill the state's ``_memo``.  A finitely correlated
presentation is a model too (``fcs.FCSPresentation.model``).

A sequence of isometries a_1, a_2, ... (an :class:`IsometrySequence` or a
list) is read by :func:`isometries`, which checks each element; the delta
table and the DHJ distances both read theirs there and step it by
``VectorModel.adjoint_image``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import EmptyWord, Inconsistent, NotNormalized, NotPrefixFree, NotUnit, SchemaError
from .linalg import hermitian_psd_check, hermitian_transpose, kernel_basis, mat_vec, solve
from .scalars import (
    QQi,
    _self_or_conj,
    abs2,
    conj,
    gaussian_parts,
    is_exact_scalar,
    scalar_is_zero,
    scalars_close,
)
from .symalg import CuntzElement, check_unitary, is_isometry_in_plus, zero
from .words import EventuallyPeriodicWord, Word, all_words, check_word, is_prefix, words_upto

__all__ = [
    "IsometrySequence",
    "isometries",
    "InducingBlocks",
    "VectorModel",
    "StateFacts",
    "MomentFunctional",
    "word_model",
    "gram_matrix",
    "make_cuntz",
    "make_prefix_code_state",
    "make_sub_cuntz",
    "make_geometric_progression",
    "hat_parameter",
    "hat_parameter_inverse",
    "make_induced_product",
    "make_mixture",
    "transform_gauge",
    "transform_sandwich",
    "make_split_series_sandwich",
    "solve_low_moments",
    "LowMomentSolution",
    "positivity_check",
    "check_unit",
]


class IsometrySequence(NamedTuple):
    """A sequence a_1, a_2, ... of isometries in the creation span.

    ``factory(i)`` returns a_i.  ``status`` records whether the delta table
    omega(a_1..a_l a_k*..a_1*) = delta_lk is known analytically ("proved") or
    only finitely checkable ("evidence"); ``horizon`` is the depth to which
    evidence holds when the sequence is read off a word known only that far.
    """

    factory: Callable[[int], CuntzElement]
    status: str
    description: str
    horizon: int | None = None


def isometries(a, count: int, n: int) -> list[CuntzElement]:
    """[a_1, ..., a_count] of an IsometrySequence or of a list of at least
    ``count`` elements, each checked to lie over O_n and to be an isometry in
    the creation span (a_i* a_i = I and no annihilation term)."""
    if count < 1:
        raise SchemaError(f"need at least 1 sequence element, asked for {count}")
    if isinstance(a, IsometrySequence):
        elems = [a.factory(i) for i in range(1, count + 1)]
    else:
        elems = list(a)[:count]
        if len(elems) < count:
            raise SchemaError(f"need {count} sequence elements, got {len(elems)}")
    for i, ai in enumerate(elems, 1):
        if ai.n != n:
            raise SchemaError(f"elements over different algebras: n={n} vs n={ai.n}")
        isometry, in_plus = is_isometry_in_plus(ai)
        if not (isometry and in_plus):
            raise NotUnit(f"a_{i} is not an isometry in the creation span")
    return elems


class InducingBlocks(NamedTuple):
    """The unit vectors z^(1), z^(2), ...: ``pre`` once, then ``rep`` cycling."""

    pre: tuple
    rep: tuple

    def at(self, t: int):
        """z^(t), 1-based."""
        if t <= len(self.pre):
            return self.pre[t - 1]
        return self.rep[(t - len(self.pre) - 1) % len(self.rep)]


class VectorModel:
    """The vectors v_J = pi(s_J)* Omega of a state, and the reader of its moments.

    ``start`` is Omega, ``step(v, i)`` is pi(s_i)* v, ``inner(a, b)`` the
    inner product (linear in b) divided by |Omega|^2, and ``combine(pairs)``
    the linear combination sum c v over (c, v) pairs.  Then
    omega(s_J s_K*) = inner(v_J, v_K), and v_J is memoized by prefix:
    v_{Ji} = step(v_J, i).  A vector may carry its own depth (the induced
    products keep one coefficient per depth), so a step can depend on it.
    The constructor's ``cast(value, J, K)`` turns inner(v_J, v_K) into the
    moment's type in ``moment`` and ``gram``; ``inner``, read by sums and
    sandwiches over the model, stays uncast.
    """

    __slots__ = ("step", "inner", "combine", "cast", "_vectors")

    def __init__(self, start, step: Callable, inner: Callable, combine: Callable, cast: Callable | None = None):
        self.step = step
        self.inner = inner
        self.combine = combine
        self.cast = cast
        self._vectors: dict[Word, object] = {(): start}

    def vector(self, J: Word):
        """v_J = pi(s_J)* Omega from the longest prefix of J already held, by
        v_{Ji} = step(v_J, i), memoizing every longer prefix on the way."""
        vectors = self._vectors
        v = vectors.get(J)
        if v is None:
            known = len(J) - 1
            while J[:known] not in vectors:
                known -= 1
            v = vectors[J[:known]]
            for t in range(known, len(J)):
                v = vectors[J[:t + 1]] = self.step(v, J[t])
        return v

    def moment(self, J: Word, K: Word):
        """omega(s_J s_K*) = <v_J, v_K>, cast."""
        value = self.inner(self.vector(J), self.vector(K))
        return value if self.cast is None else self.cast(value, J, K)

    # a model is a moment function, so it can be a state's source
    __call__ = moment

    def gram(self, rows: Sequence[Word]) -> list:
        """[[moment(J, K) for K in rows] for J in rows], each vector fetched once.

        The matrix is Hermitian: only the N(N+1)/2 entries on and above the
        diagonal are inner products, and each entry below it is the conjugate
        of its mirror, a mirror that is its own conjugate (an int, Fraction,
        float or real QQi) reused as it is.
        """
        xs = [self.vector(J) for J in rows]
        inner, cast = self.inner, self.cast
        g: list[list] = []
        for i, x in enumerate(xs):
            row = [_self_or_conj(above[i]) for above in g]
            if cast is None:
                row.extend(inner(x, y) for y in xs[i:])
            else:
                J = rows[i]
                row.extend(cast(inner(x, y), J, K) for K, y in zip(rows[i:], xs[i:]))
            g.append(row)
        return g

    def strip(self, v, W: Word):
        """pi(s_W)* v: the letters of W stepped first letter first."""
        for i in W:
            v = self.step(v, i)
        return v

    def adjoint_image(self, x: CuntzElement, v):
        """pi(x)* v = sum_W conj(b_W) pi(s_W)* v for x = sum_W b_W s_W in the
        creation span."""
        return self.combine([(conj(b), self.strip(v, W)) for (W, _), b in x.terms.items()])

    def twisted(self, g, g_exact: bool) -> "VectorModel":
        """The model of omega o alpha_g on the same vectors: pi(alpha_g(s_i))* =
        sum_j conj(g_ji) pi(s_j)*, the zero entries of g skipped.  An exact g
        casts its moments to QQi, a float g to complex."""
        n = len(g)
        columns = [[(conj(g[j][i]), j + 1) for j in range(n) if g[j][i] != 0] for i in range(n)]
        step, combine = self.step, self.combine

        def twisted_step(v, i: int):
            return combine([(c, step(v, j)) for c, j in columns[i - 1]])

        return VectorModel(self._vectors[()], twisted_step, self.inner, combine, _as_qqi if g_exact else _as_complex)


_UNKNOWN_PURITY = ("Unknown", "no purity criterion applies to this presentation")
_PURE_IN_PURE = "unit vector state in the irreducible representation of a pure state"


class StateFacts(NamedTuple):
    """What a family constructor proved about its state.

    * ``purity``: (verdict, reason), verdict "Pure", "NotPure" or "Unknown";
    * ``cuntz``: (z, provenance) when the state is equivalent to the Cuntz
      state by z, provenance "family" or "user" (declared, not verified);
    * ``shift_period``: the primitive period d of a vector state of an
      eventually periodic shift representation (kappa = d);
    * ``tail_class``: the eventually periodic word whose shift representation
      holds the state;
    * ``tensor``: (m, coefficient map on the words of length m) of a uniquely
      determined word-moment state;
    * ``progression``: (k, parameter in progression order) of a uniquely
      determined progression state on the k-step code;
    * ``induced``: the inducing blocks of an induced product state;
    * ``minimal_isometry``: an isometry u in the creation span with omega(u) = 1,
      still to be verified;
    * ``sequence``: an isometry sequence with its delta-table status;
    * ``twist``: (base, g) for the state base o alpha_g;
    * ``solution_dim``: dimension of the fixed-point system of a prefix code.
    """

    purity: tuple = _UNKNOWN_PURITY
    cuntz: tuple | None = None
    shift_period: int | None = None
    tail_class: EventuallyPeriodicWord | None = None
    tensor: tuple | None = None
    progression: tuple | None = None
    induced: InducingBlocks | None = None
    minimal_isometry: CuntzElement | None = None
    sequence: IsometrySequence | None = None
    twist: tuple | None = None
    solution_dim: int | None = None


class MomentFunctional:
    """A state on O_n presented through its moments omega(s_J s_K*).

    ``source`` is the moment function (J, K) -> omega(s_J s_K*).  A
    :class:`VectorModel` source is the state's ``model``; any other is read
    through ``word_model(source, self._memo)``.  The source is positional
    and the memo kept because ``bench/tracer.py`` wraps the source in a
    plain function and counts the memo's growth around ``moment()``, so a
    traced state reads its word model.  ``family`` labels the constructor
    (for display and tracing only); ``facts`` holds what it proved.
    """

    def __init__(self, n: int, family: str, source: Callable[[Word, Word], object], *,
                 facts: StateFacts = StateFacts(), exact: bool = True, warnings: Iterable[str] = ()):
        self.n = n
        self.family = family
        self.facts = facts
        self.exact = exact
        self.warnings = list(warnings)
        self._memo: dict[tuple[Word, Word], object] = {}
        self.model = source if isinstance(source, VectorModel) else word_model(source, self._memo)
        # finished Gram growths per (level cap, rank tolerance) and kappa results
        # per (level cap, search flag, search depth); see classify.gram_growth
        # and classify.kappa
        self._growths: dict[tuple, object] = {}
        self._kappas: dict[tuple, object] = {}

    def moment(self, J: Word, K: Word = ()) -> object:
        """omega(s_J s_K*), with J and K checked as words over 1..n."""
        return self.model.moment(check_word(J, self.n), check_word(K, self.n))

    def moment_of_element(self, x: CuntzElement) -> object:
        if x.n != self.n:
            raise SchemaError(f"element over n={x.n}, state over n={self.n}")
        moment = self.model.moment
        return sum((c * moment(J, K) for (J, K), c in x.terms.items()), 0)

    def __repr__(self):
        return f"MomentFunctional(n={self.n}, family={self.family!r})"


def word_model(moment: Callable[[Word, Word], object], memo: dict) -> VectorModel:
    """The model of a moment function spanned by the words themselves.

    pi(P)* Omega for P = sum_J x_J s_J is the map {J: x_J}, starting at
    {(): 1}.  A step appends the letter, pi(s_i)* pi(P)* Omega =
    pi(P s_i)* Omega, and the inner product omega(P Q*) is the sum of
    x_J conj(y_K) omega(s_J s_K*), each moment read once into ``memo``.
    """

    def read(J: Word, K: Word):
        if (J, K) not in memo:
            memo[J, K] = moment(J, K)
        return memo[J, K]

    def inner(x: dict, y: dict):
        terms = [cx * conj(cy) * read(J, K) for J, cx in x.items() for K, cy in y.items()]
        # a one-term sum is that term, with no int 0 added
        return sum(terms[1:], terms[0]) if terms else 0

    # c pi(P)* Omega = pi(conj(c) P)* Omega
    return VectorModel({(): 1}, lambda x, i: {J + (i,): c for J, c in x.items()}, inner,
                       lambda pairs: _combine_maps((conj(c), x) for c, x in pairs))


def _combine_maps(pairs) -> dict:
    """sum c x over (c, x) pairs of vectors stored as {key: coefficient}."""
    out: dict = {}
    for c, x in pairs:
        for key, b in x.items():
            out[key] = out[key] + c * b if key in out else c * b
    return out


def gram_matrix(omega: MomentFunctional, words: Sequence[Word]):
    """Gram matrix of the vectors pi(s_J)* Omega for J in words, each word
    checked once, read off ``omega.model``: N(N+1)/2 inner products, the
    entries below the diagonal filled in as conjugates."""
    return omega.model.gram([check_word(J, omega.n) for J in words])


def check_unit(vec) -> None:
    total = sum((abs2(x) for x in vec), 0)
    if not scalars_close(total, 1):
        shown = total if is_exact_scalar(total) else repr(float(total))
        raise NotUnit(f"parameter vector has squared norm {shown}, expected 1")


# ---------------------------------------------------------------------------
# Cuntz states
# ---------------------------------------------------------------------------


def _single_word_tail(pairs, n: int):
    """The tail class W^inf of a state prescribed on one word W with coefficient 1."""
    support = [(w, c) for w, c in pairs if not scalar_is_zero(c)]
    if len(support) == 1 and scalars_close(support[0][1], 1):
        return EventuallyPeriodicWord((), support[0][0], n)
    return None


def make_cuntz(z) -> MomentFunctional:
    """The state with pi(s_j)* Omega = z_j Omega, i.e. omega(s_J s_K*) = conj(z_J) z_K:
    the state fixed by u = sum_j z_j s_j, on the code of order 1."""
    z = tuple(z)
    n = len(z)
    if n < 2:
        raise SchemaError("need at least two components")
    check_unit(z)
    exact = all(is_exact_scalar(x) for x in z)
    letters = {(j,): z[j - 1] for j in range(1, n + 1)}
    # every letter steps, a zero one too, so a float state's zero moments stay complex
    model = _suffix_model(n, letters, {(): QQi(1) if exact else 1})
    facts = StateFacts(
        purity=("Pure", "a Cuntz state is a vector state of an irreducible representation"),
        cuntz=(z, "family"),
        tail_class=_single_word_tail(letters.items(), n),
        tensor=(1, letters),
        minimal_isometry=CuntzElement(n, {(w, ()): c for w, c in letters.items() if not scalar_is_zero(c, 0.0)}),
    )
    return MomentFunctional(n, "cuntz", model, facts=facts, exact=exact)


class _Group(dict):
    """The keys of one length of a suffix-model vector, {C: x_C}.  A group
    meets many vectors whose keys are shorter, so the prefix sums their
    inner products read are kept with it, one map per prefix length."""

    reductions = None

    def reduced(self, cut: int, table: dict) -> dict:
        """{P: sum_X x_X omega(s_{X - P})} over the keys X with the prefix P of length cut."""
        if self.reductions is None:
            self.reductions = {}
        sums = self.reductions.get(cut)
        if sums is None:
            sums = self.reductions[cut] = {}
            for X, x in self.items():
                sums[X[:cut]] = sums.get(X[:cut], 0) + x * table[X[cut:]]
        return sums


def _suffix_model(n: int, z: dict, table: dict) -> VectorModel:
    """The model of the state fixed by u = sum_W z_W s_W on its code's suffixes.

    omega(u) = 1 makes pi(u) Omega = Omega, so
    pi(s_i)* Omega = sum_{W_1 = i} z_W pi(s_{W[1:]}) Omega.  A vector stands
    for sum x_C pi(s_C) Omega over proper suffixes C of the code words in
    ``z``, stored by key length as {|C|: {C: x_C}}; pi(s_i)* strips a leading
    i and expands the key () by the rule above.  ``table`` holds omega(s_R)
    for R shorter than the longest code word, its unit omega(1) starting the
    vectors, and
    <pi(s_C) Omega, pi(s_D) Omega> = omega(s_C* s_D) is table[D - C] when
    C <= D, conj(table[C - D]) when D <= C, and 0 otherwise.  So two groups
    of one key length pair up by equal keys, and two of different lengths
    by the shorter keys looked up among the longer group's prefix sums.
    """
    expand: dict[int, dict] = {i: {} for i in range(1, n + 1)}
    for W, c in z.items():
        expand[W[0]].setdefault(len(W) - 1, {})[W[1:]] = c
    zero = table[()] * 0

    def step(v: dict, i: int) -> dict:
        # distinct keys with the leading letter i stay distinct once it is stripped
        parts = [(1, {length - 1: {C[1:]: x for C, x in group.items() if C[0] == i}})
                 for length, group in v.items() if length]
        if 0 in v:
            parts.append((v[0][()], expand[i]))
        return combine(parts)

    def inner(a: dict, b: dict):
        terms: list = []
        for la, ga in a.items():
            for lb, gb in b.items():
                if la == lb:
                    terms += [x.conjugate() * gb[C] for C, x in ga.items() if C in gb]
                elif la < lb:
                    sums = gb.reduced(la, table)
                    terms += [x.conjugate() * sums[P] for P, x in ga.items() if P in sums]
                else:
                    sums = ga.reduced(lb, table)
                    terms += [sums[P].conjugate() * y for P, y in gb.items() if P in sums]
        # a one-term sum is that term, so a float moment keeps its bits
        return sum(terms[1:], terms[0]) if terms else zero

    def combine(pairs) -> dict:
        pairs = list(pairs)
        groups = {length: _Group(_combine_maps((c, v[length]) for c, v in pairs if length in v))
                  for length in {length for _, v in pairs for length in v}}
        return {length: group for length, group in groups.items() if group}

    return VectorModel({0: _Group({(): table[()]})}, step, inner, combine)


# ---------------------------------------------------------------------------
# Prefix-code fixed-point states and their low-moment solver
# ---------------------------------------------------------------------------


class LowMomentSolution(NamedTuple):
    """Solved creation moments v_C = omega(s_C) for |C| <= max code length."""

    table: dict
    solution_dim: int
    warnings: list


def _validate_prefix_code(P, n: int):
    words = []
    for W in P:
        w = check_word(W, n)
        if not w:
            raise EmptyWord("a prefix code may not contain the empty word")
        words.append(w)
    if len(set(words)) != len(words):
        raise NotPrefixFree("repeated word in code")
    # every word between a and a word it is a proper prefix of, in
    # lexicographic order, starts with a too; so a is a prefix of its successor
    ordered = sorted(words)
    for a, b in zip(ordered, ordered[1:]):
        if is_prefix(a, b):
            raise NotPrefixFree(f"{a} is a prefix of {b}")
    return words


def _align_coefficients(code, z, n: int) -> dict:
    if isinstance(z, dict):
        zmap = {check_word(k, n): v for k, v in z.items()}
        extra = set(zmap) - set(code)
        if extra:
            raise SchemaError(f"coefficients on words outside the code: {sorted(extra)}")
        for w in code:
            zmap.setdefault(w, 0)
    else:
        z = list(z)
        if len(z) != len(code):
            raise SchemaError(f"{len(z)} coefficients for a code of {len(code)} words")
        zmap = dict(zip(code, z))
    return zmap


def _code_lookup(support: Sequence[Word]):
    """(head, tails) over the code words of ``support``: head(X) is the code
    word that is a prefix of X (equality included; a prefix code has at most
    one), or None; tails(X) lists the code words X is a proper prefix of, in
    support order."""
    words = set(support)
    lengths = sorted({len(w) for w in support})
    below: dict[Word, list[Word]] = {}
    for W in support:
        for i in range(len(W)):
            below.setdefault(W[:i], []).append(W)

    def head(X: Word) -> Word | None:
        for length in lengths:
            if length > len(X):
                break
            if X[:length] in words:
                return X[:length]
        return None

    return head, lambda X: below.get(X, ())


class _PrefixCode(NamedTuple):
    """A validated prefix code with its coefficients, read once per construction."""

    n: int
    code: list
    z: dict
    support: list  # words with a nonzero coefficient, in (length, lex) order
    max_len: int
    exact: bool
    head: Callable[[Word], Word | None]
    tails: Callable[[Word], Sequence[Word]]


def _read_code(P, z, n: int | None) -> _PrefixCode:
    """The code P over n letters, n by default its largest letter."""
    code = list(P)
    if not code:
        raise SchemaError("a prefix code needs at least one word")
    if n is None:
        # a code of empty words has no letter, and validation refuses it
        n = max((a for W in code for a in W), default=1)
    code = _validate_prefix_code(code, n)
    zmap = _align_coefficients(code, z, n)
    support = sorted((w for w in code if not scalar_is_zero(zmap[w], 0.0)), key=lambda w: (len(w), w))
    return _PrefixCode(n, code, zmap, support, max(len(w) for w in code),
                       all(is_exact_scalar(zmap[w]) for w in code), *_code_lookup(support))


# the most words the fixed-point table may list: over 64 times the order-7 table
# over two letters (255 words), the largest any corpus or test state builds
_MAX_TABLE_WORDS = 1 << 14


def _check_table_words(n: int, lo: int, hi: int, what: str) -> None:
    """Refuse, before any is listed, the words of lengths lo..hi over n
    letters when they exceed _MAX_TABLE_WORDS; ``what`` leads the error."""
    # n^hi >= 2^hi exceeds the limit once hi reaches its bit length, so a long word forms no power
    if hi >= _MAX_TABLE_WORDS.bit_length() or sum(n**l for l in range(lo, hi + 1)) > _MAX_TABLE_WORDS:
        raise SchemaError(f"{what} {_MAX_TABLE_WORDS} words")


def solve_low_moments(P, z, n: int | None = None) -> LowMomentSolution:
    """Solve for the creation moments of the state fixed by u = sum_W z_W s_W.

    A code word's moment is read from the spec: the fixed-point identity
    omega(u* s_W) = omega(s_W) at a code word W says v_W = conj(z_W) v_empty,
    so the table holds exactly conj(z_W) there, and v_W enters every other
    equation as that multiple of v_empty.  The identity at each other word C
    with |C| <= max code length gives one equation in the unknowns v_C; the
    homogeneous real-linear system (with the normalization v_empty left free)
    has solution dimension 1 exactly when the state is unique.  The sandwich
    identities omega(u* s_C u) = omega(s_C) follow from these equations (see
    ``_solve_low_moments``), so they add nothing.  When the dimension is > 1
    the minimum-norm table on the slice v_empty = 1 is returned (the
    symmetric mixture) together with a warning.  Putting the code words back
    as unknowns would change none of this: each would be a column with a unit
    pivot, and on the slice it adds the constant sum_W |z_W|^2 to the norm.

    Each equation is two sparse real rows (real and imaginary part) over the
    columns Re v_C, Im v_C: of ints and Fractions in exact mode, which
    ``kernel_basis`` scales to integers, and of floats in float mode.  A
    table entry is read back in the mode's scalar type (QQi or complex) as
    its coordinates over v_empty's.  ``kernel_basis`` reduces the system one
    connected block of columns at a time.  The blocks are small:
    for the uniform code of order m the equation of a word C of length l < m is
    v_C = sum_{|B| = m - l} conj(z_CB) conj(v_B), so length l couples only
    with length m - l, and v_empty, whose equation reads Im v_empty = 0, with
    no other word: the 254 columns of order 7 over two letters split into
    blocks of 132, 72 and 48 and the two columns of v_empty.  A progression
    code stays one block.
    """
    return _solve_low_moments(_read_code(P, z, n))


def _solve_low_moments(pc: _PrefixCode) -> LowMomentSolution:
    """The fixed-point table, reduced once.

    The fixed-point row of a word X, |X| <= M, reads c(X) = F(X) with
    F(X) = sum_{W <= X} conj(z_W) c(X - W) + sum_{W > X} conj(z_W) conj(c(W - X))
    over the code words W that are a prefix of X, or that X is a proper prefix
    of; every word it names has length at most M.  Its kernel already meets
    every sandwich identity omega(u* s_C u) = omega(s_C):

    * Extend a solution c to the words longer than M by the code-word peel:
      c(Y) = conj(z_W) c(Y - W) for the code word W that is a prefix of Y,
      and c(Y) = 0 when no code word is.  Then c(X) = F(X) holds for every
      word X, since no code word extends a word longer than M.
    * At X = empty it reads c(empty) = sum_W |z_W|^2 conj(c(empty)), so
      Im c(empty) = 0 on the whole kernel.
    * Expanding sum_B z_B F(XB) shows that D(X) = sum_B z_B c(XB) - c(X)
      satisfies D(X) = conj(z_W) D(X - W) for the code word W <= X, and
      D(X) = 0 when there is none.
    * D(empty) = (sum_B |z_B|^2 - 1) c(empty) = 0, so D = 0 everywhere: each
      sandwich row vanishes on the kernel.

    Since Im v_empty = 0 on the kernel, the least-norm point on v_empty = 1
    is P e_0, the projection of the first unit vector onto the kernel,
    scaled to v_empty = 1: with B the kernel vectors as columns, P e_0 =
    B t for the solution t of (B^T B) t = B^T e_0, the kernel's column 0.
    """
    check_unit([pc.z[w] for w in pc.code])
    n, zmap, M, head, tails = pc.n, pc.z, pc.max_len, pc.head, pc.tails
    _check_table_words(n, 0, M, f"the fixed-point table of the words up to length {M} over {n} letters exceeds")
    table_words = list(words_upto(n, M))
    # a code word's moment is given, v_W = conj(z_W) v_empty, so only the
    # other words are unknowns
    code = set(pc.code)
    unknowns = [w for w in table_words if w not in code]
    index = {w: i for i, w in enumerate(unknowns)}
    width = 2 * len(unknowns)
    if pc.exact:
        scalar = QQi

        def parts(c):
            # (a + bi)/d as ints when d = 1, as Fractions otherwise
            a, b, d = gaussian_parts(c)
            return (a, b) if d == 1 else (Fraction(a, d), Fraction(b, d))
    else:
        scalar = complex

        def parts(c):
            c = complex(c)
            return c.real, c.imag

    def add(row: dict, X: Word, c, conjugated: bool) -> None:
        # row += c v_X, or c conj(v_X); a code word X is conj(z_X) v_empty,
        # and a code word with coefficient 0 names the moment 0
        if X in code:
            z = zmap[X]
            if not z:
                return
            c, X = c * (z if conjugated else conj(z)), ()
        key = (X, conjugated)
        row[key] = row[key] + c if key in row else c

    def equation(C: Word) -> list:
        # v_C - omega(u* s_C): the code word W <= C leaves s_{C - W}, and a
        # code word W extending C leaves s_{W - C}*
        row = {(C, False): 1}
        W = head(C)
        if W is not None:
            add(row, C[len(W):], -conj(zmap[W]), False)
        for W in tails(C):
            add(row, W[len(C):], -conj(zmap[W]), True)
        # (a + bi)(x + s iy) = (a x - s b y) + i (b x + s a y), columns 2i, 2i+1 for (x, y) of word i:
        # two sparse rows {column: entry}
        re, im = {}, {}
        for (w, conjugated), c in row.items():
            a, b = parts(c)
            i = 2 * index[w]
            for acc, j, x in ((re, i, a), (im, i, b), (re, i + 1, b if conjugated else -b),
                              (im, i + 1, -a if conjugated else a)):
                if x:
                    acc[j] = acc[j] + x if j in acc else x
        return [{j: x for j, x in re.items() if x}, {j: x for j, x in im.items() if x}]

    kernel = kernel_basis([r for C in unknowns for r in equation(C)], width)
    dim = len(kernel)
    if dim == 0:
        raise Inconsistent("fixed-point system has no nonzero solution")

    warnings = []
    if dim == 1:
        vec = kernel[0]
    else:
        # P e_0 = B t with (B^T B) t = B^T e_0; the entries below divide by v_empty
        support = [[(k, x) for k, x in enumerate(v) if x] for v in kernel]
        gram = [[sum((x * v[k] for k, x in entries if v[k]), 0) for v in kernel] for entries in support]
        vec = [0] * width
        for t, entries in zip(solve(gram, [v[0] for v in kernel]), support):
            for k, x in entries:
                vec[k] = vec[k] + t * x
        warnings.append(f"solution space has dimension {dim}; returning the symmetric minimum-norm table")

    v0 = scalar(vec[0], vec[1])
    if scalar_is_zero(v0, 1e-12):
        raise Inconsistent("solution space is orthogonal to the normalization v_empty = 1")

    def entry(w: Word):
        # a solved word is its coordinates over v_empty's; a code word's moment is conj(z_W)
        if w in index:
            i = 2 * index[w]
            return scalar(vec[i], vec[i + 1]) / v0
        return scalar(*parts(conj(zmap[w])))

    return LowMomentSolution({w: entry(w) for w in table_words}, dim, warnings)


def _detect_code_family(code: set[Word], n: int):
    """(family, m or k): the uniform code of order m, the k-step progression
    code, or ("prefix_code", None)."""
    lengths = {len(w) for w in code}
    if len(lengths) == 1:
        m = lengths.pop()
        # distinct words of length m are all of them exactly when there are
        # n^m; n^m >= 2^m exceeds len(code) once m reaches its bit length
        if m < len(code).bit_length() and n**m == len(code):
            return "sub_cuntz", m
    k = max(len(w) for w in code)
    if code == set(_progression_code(k, n)):
        return "geometric_progression", k
    return "prefix_code", None


def make_prefix_code_state(P, z, n: int | None = None) -> MomentFunctional:
    """The state(s) omega with omega(s_W) = conj(z_W) on a finite prefix code P.

    Equivalently the state fixed by the isometry u = sum_W z_W s_W.  When the
    defining system does not pin omega uniquely, the symmetric mixture is
    returned and ``facts.solution_dim`` records the dimension.
    """
    pc = _read_code(P, z, n)
    n, code, zmap, support = pc.n, pc.code, pc.z, pc.support
    family, size = _detect_code_family(set(code), n)
    if family == "sub_cuntz" and size == 1:
        return make_cuntz([zmap[(i,)] for i in range(1, n + 1)])

    sol = _solve_low_moments(pc)
    model = _suffix_model(n, {w: zmap[w] for w in support}, sol.table)
    # s_W* s_W' = delta_WW' I on a prefix code of nonempty words, so
    # u*u = (sum_W |z_W|^2) I, and _solve_low_moments has checked that sum
    # with check_unit: u is an isometry in the creation span
    u = CuntzElement(n, {(w, ()): zmap[w] for w in support})
    dim = sol.solution_dim
    unique = dim == 1
    purity, tensor, progression, cuntz = _UNKNOWN_PURITY, None, None, None
    if family == "sub_cuntz" and unique:
        purity = ("Pure", "the word moments pin the state uniquely (the defining tensor is not a "
                          "proper tensor power), and the unique solution is pure")
        tensor = (size, zmap)
    elif family == "sub_cuntz":
        purity = ("NotPure", f"the defining tensor is a {dim}-th tensor power, so the canonical table is "
                             f"the uniform mixture of {dim} phase-twisted pure states")
    elif family == "geometric_progression":
        z_indexed = tuple(zmap[w] for w in _progression_code(size, n))
        y = hat_parameter_inverse(z_indexed, size, n)
        cuntz = (y, "family") if y is not None else None
        if unique:
            purity = ("Pure", "the closing coefficient has modulus < 1, so the state is unique and pure")
            progression = (size, z_indexed)
        else:
            purity = ("Unknown", "the defining system is underdetermined on this code and no purity "
                                 "criterion applies")
    facts = StateFacts(
        purity=purity,
        cuntz=cuntz,
        tail_class=_single_word_tail(((w, zmap[w]) for w in code), n) if unique else None,
        tensor=tensor,
        progression=progression,
        minimal_isometry=u,
        solution_dim=dim,
    )
    return MomentFunctional(n, family, model, facts=facts, exact=pc.exact, warnings=sol.warnings)


def make_sub_cuntz(m: int, z, n: int) -> MomentFunctional:
    """Order-m state: omega(s_J) = conj(z_J) for every |J| = m.

    z may be a dict keyed by words or a flat sequence in lexicographic word
    order of length n^m.
    """
    if not isinstance(z, dict):
        z = list(z)
        # sizes are compared before the n^m words are listed; n^m >= 2^m > len(z)
        # once m reaches the bit length of len(z), so a huge m forms no power
        if m >= len(z).bit_length() or n**m != len(z):
            raise SchemaError(f"expected {n}^{m} coefficients in lexicographic order, got {len(z)}")
    return make_prefix_code_state(list(all_words(n, m)), z, n)


def _progression_code(k: int, n: int, axis: int | None = None) -> list[Word]:
    """The k-step progression code {a^r i : i != a, r < k} + {a^k} along the
    letter a = ``axis`` (default n)."""
    a = n if axis is None else axis
    code = [(a,) * r + (i,) for r in range(k) for i in range(1, n + 1) if i != a]
    code.append((a,) * k)
    return code


def make_geometric_progression(k: int, z, n: int) -> MomentFunctional:
    """State prescribed on the progression code {n^r i : r < k} + {n^k}.

    z is indexed so that z[(n-1)r + i - 1] sits on the word n^r i and the last
    entry z[(n-1)k] on n^k.
    """
    z = list(z)
    if len(z) != (n - 1) * k + 1:
        raise SchemaError(f"expected {(n - 1) * k + 1} coefficients, got {len(z)}")
    return make_prefix_code_state(_progression_code(k, n), z, n)


def hat_parameter(y, k: int):
    """Finite-progression parameter built from a unit vector y with |y_n| < 1.

    Entries y_n^r y_i on the words n^r i (r < k) and y_n^k on n^k; always a
    unit vector, and the resulting progression state coincides with the Cuntz
    state by y.
    """
    y = tuple(y)
    n = len(y)
    out = []
    for r in range(k):
        p = y[n - 1] ** r if r else 1
        for i in range(1, n):
            out.append(p * y[i - 1])
    out.append(y[n - 1] ** k)
    return out


def hat_parameter_inverse(z, k: int, n: int):
    """Recover y with hat_parameter(y, k) == z, or None."""
    z = list(z)
    if len(z) != (n - 1) * k + 1:
        return None
    first = list(z[: n - 1])
    if all(scalar_is_zero(c) for c in first):
        return None
    if k >= 2:
        j = max(range(n - 1), key=lambda t: abs(complex(z[t])))
        yn = z[(n - 1) + j] / z[j]
    else:
        # k = 1: z ends with y_n itself
        yn = z[-1]
    y = tuple(first) + (yn,)
    if abs(complex(yn)) >= 1:
        return None
    try:
        check_unit(y)
    except NotUnit:
        return None
    zhat = hat_parameter(y, k)
    if all(scalars_close(a, b) for a, b in zip(zhat, z)):
        return y
    return None


# ---------------------------------------------------------------------------
# Induced product states
# ---------------------------------------------------------------------------


def make_induced_product(pre_blocks, rep_blocks, n: int) -> MomentFunctional:
    """Product state induced by the eventually periodic sequence of unit vectors.

    z^(t) runs through pre_blocks then cycles rep_blocks; the moments are
    omega(s_J s_K*) = conj(z_J) z_K when |J| = |K| and 0 otherwise, with
    z_J = prod_t z^(t)_{j_t}.  The vector model reads this off orthonormal
    vectors e_0, e_1, ... with Omega = e_0 and pi(s_i)* e_t = z^(t+1)_i e_(t+1),
    so v_J = z_J e_|J|; a vector is the map {depth t: coefficient of e_t}.
    """
    if n < 2:
        raise SchemaError(f"alphabet size must be >= 2, got {n}")
    pre = tuple(tuple(b) for b in pre_blocks)
    rep = tuple(tuple(b) for b in rep_blocks)
    if not rep:
        raise SchemaError("need at least one repeating block")
    for b in pre + rep:
        if len(b) != n:
            raise SchemaError(f"block of length {len(b)}, expected {n}")
        check_unit(b)
    exact = all(is_exact_scalar(x) for b in pre + rep for x in b)
    blocks = InducingBlocks(pre, rep)
    block = blocks.at
    zero_moment = QQi(0) if exact else 0j

    def step(v: dict, i: int) -> dict:
        return {t + 1: c * block(t + 1)[i - 1] for t, c in v.items()}

    def inner(a: dict, b: dict):
        terms = [conj(c) * b[t] for t, c in a.items() if t in b]
        return sum(terms[1:], terms[0]) if terms else zero_moment

    model = VectorModel({0: 1}, step, inner, _combine_maps)

    seq = IsometrySequence(
        lambda i: CuntzElement(n, {((j,), ()): block(i)[j - 1] for j in range(1, n + 1)}),
        "proved",
        "row isometries a_i = sum_j z^(i)_j s_j of the inducing sequence",
    )
    facts = StateFacts(
        purity=("NotPure", "the inducing sequence is eventually periodic: a shift by one full cycle "
                           "aligns it with itself, the overlap series converges, and the state decomposes"),
        induced=blocks,
        sequence=seq,
    )
    return MomentFunctional(n, "induced_product", model, facts=facts, exact=exact)


# ---------------------------------------------------------------------------
# Mixtures and transforms
# ---------------------------------------------------------------------------


def make_mixture(states: Sequence[MomentFunctional], weights) -> MomentFunctional:
    if len(states) < 2:
        raise SchemaError("a mixture needs at least two components")
    n = states[0].n
    if any(s.n != n for s in states):
        raise SchemaError("mixture components live over different algebras")
    weights = list(weights)
    if len(weights) != len(states):
        raise SchemaError("weights do not match components")
    total = sum(weights)
    # an exact weight is real exactly, a float one to within DEFAULT_EQ_TOL
    real = all(scalar_is_zero(w.im if type(w) is QQi else complex(w).imag) for w in weights)
    if not real or not scalars_close(total, 1) or any(complex(w).real <= 0 for w in weights):
        raise SchemaError("weights must be positive and sum to 1")
    exact = all(s.exact for s in states) and all(is_exact_scalar(w) for w in weights)
    model = _mixture_model(weights, [s.model for s in states], exact)
    facts = StateFacts(purity=("NotPure", "constructed as an explicit convex mixture"))
    return MomentFunctional(n, "mixture", model, facts=facts, exact=exact)


def _mixture_model(weights, models: Sequence[VectorModel], exact: bool) -> VectorModel:
    """The direct sum of the components' models: Omega = (+)_k sqrt(w_k) Omega_k,
    so a vector is the tuple of component vectors, stepped and combined
    component by component, and <a, b> = sum_k w_k <a_k, b_k>_k, cast to
    QQi when exact."""

    def step(v: tuple, i: int) -> tuple:
        return tuple(m.step(x, i) for m, x in zip(models, v))

    def inner(a: tuple, b: tuple):
        return sum((w * m.inner(x, y) for w, m, x, y in zip(weights, models, a, b)), 0)

    def combine(pairs) -> tuple:
        pairs = list(pairs)
        return tuple(m.combine([(c, v[k]) for c, v in pairs]) for k, m in enumerate(models))

    return VectorModel(tuple(m.vector(()) for m in models), step, inner, combine, _as_qqi if exact else None)


def transform_gauge(omega: MomentFunctional, g) -> MomentFunctional:
    """The state omega o alpha_g for the gauge automorphism alpha_g(s_i) = sum_j g_ji s_j.

    The base's vector model (``omega.model``) is stepped by
    S'_i = sum_j conj(g_ji) S_j, where S_j is the base's pi(s_j)*:
    omega(alpha_g(s_J s_K*)) = <S'_J Omega, S'_K Omega>.  The twist keeps
    this model, so a twist of it steps it again, and each letter costs at
    most n base steps.  Constructing a twist grows no Gram basis.  By the
    twisted model's ``cast``, an exact g gives QQi moments and a float g
    complex ones (but omega(I), the base's own).  The twist is exact when its
    base and g are: a lazy shift state and its exact twists are exact, only
    their delta tables are evidence to the word's horizon.

    From its base the twist inherits only the Cuntz parameter, moved by g^H
    (alpha_g is inverted by alpha of the conjugate transpose), the purity
    verdict and the twisted model; everything else classify derives through
    ``facts.twist``.
    """
    n = omega.n
    check_unitary(g, n)
    g = tuple(tuple(row) for row in g)
    g_exact = all(is_exact_scalar(x) for row in g for x in row)

    base = omega.facts
    cuntz = None
    if base.cuntz is not None:
        z, provenance = base.cuntz
        cuntz = (tuple(mat_vec(hermitian_transpose(g), list(z))), provenance)
    verdict, reason = base.purity
    # a twist of a twist already carries the phrase
    if verdict != "Unknown" and base.twist is None:
        reason += "; composition with a gauge automorphism preserves purity"
    model = omega.model.twisted(g, g_exact)
    facts = StateFacts(purity=(verdict, reason), cuntz=cuntz, twist=(omega, g))
    return MomentFunctional(n, "gauge", model, facts=facts, exact=omega.exact and g_exact)


def _as_qqi(value, J: Word, K: Word):
    # a zero or real sum of exact scalars comes out as int or Fraction
    return QQi(value) if isinstance(value, (int, Fraction)) else value


def _as_complex(value, J: Word, K: Word):
    # a float twist's moments are complex, save omega(I), the base's own; an
    # exact base's zero vectors read exact zeros
    return complex(value) if (J or K) and is_exact_scalar(value) else value


def transform_sandwich(
    omega: MomentFunctional,
    terms: Sequence[tuple[object, CuntzElement]],
    *,
    equivalent_to_cuntz=None,
) -> MomentFunctional:
    """The functional x -> sum_{l,l'} conj(c_l) c_l' omega(A_l* x A_l').

    ``terms`` is a finite list of (c_l, A_l), read as pi(A) Omega with
    A = sum_l c_l A_l in the cyclic representation of the base state, so
    omega'(s_J s_K*) = <pi(s_J)* pi(A) Omega, pi(s_K)* pi(A) Omega>; the
    vectors step the base's model (``_sandwich_model``).

    The list is the whole sum: the constructor evaluates the mass omega'(I)
    and refuses (NotNormalized) unless it equals 1, so the functional is
    a state.  A user-supplied ``equivalent_to_cuntz`` parameter (a unit
    vector of length n) is recorded with provenance "user"; the equivalence
    itself is not verified.  A unit vector state of an irreducible
    representation is pure, so the sandwich is decided pure when its base
    is; over any other base nothing follows.
    """
    n = omega.n
    terms = [(c, Al) for c, Al in terms]
    for _, Al in terms:
        if Al.n != n:
            raise SchemaError("sandwich element over a different algebra")
    if equivalent_to_cuntz is not None:
        if len(equivalent_to_cuntz) != n:
            raise SchemaError(f"equivalent_to_cuntz needs {n} entries, got {len(equivalent_to_cuntz)}")
        check_unit(equivalent_to_cuntz)
    exact = omega.exact and all(is_exact_scalar(c) for c, _ in terms)

    model = _sandwich_model(omega.model, sum((c * Al for c, Al in terms), zero(n)), exact)
    mass = model.moment((), ())
    if not scalars_close(mass, 1):
        raise NotNormalized(f"transform has total mass {mass if is_exact_scalar(mass) else complex(mass)}, expected 1")

    facts = StateFacts(
        purity=("Pure", _PURE_IN_PURE) if omega.facts.purity[0] == "Pure" else _UNKNOWN_PURITY,
        cuntz=(tuple(equivalent_to_cuntz), "user") if equivalent_to_cuntz is not None else None,
    )
    return MomentFunctional(n, "sandwich", model, facts=facts, exact=exact)


def _sandwich_model(base: VectorModel, A: CuntzElement, exact: bool) -> VectorModel:
    """The model of pi(A) Omega over the base's model, cast to QQi when exact.

    A vector is {P: x_P}, standing for sum_P pi(s_P) x_P with x_P a vector
    of the base.  The term b s_W s_V* of A starts at key W with b v_V; a step
    pi(s_i)* strips a leading i, or steps x_() in the base; and for P <= Q,
    <pi(s_P) x, pi(s_Q) y> = <pi(s_{Q - P})* x, y>, stepped in the base
    (symmetrically for Q <= P)."""

    def step(v: dict, i: int) -> dict:
        stripped = [(1, {P[1:]: x}) for P, x in v.items() if P and P[0] == i]
        return combine(stripped + ([(1, {(): base.step(v[()], i)})] if () in v else []))

    def inner(a: dict, b: dict):
        total = 0
        for P, x in a.items():
            for Q, y in b.items():
                if Q[:len(P)] == P:
                    total = total + base.inner(base.strip(x, Q[len(P):]), y)
                elif P[:len(Q)] == Q:
                    total = total + base.inner(x, base.strip(y, P[len(Q):]))
        return total

    def combine(pairs) -> dict:
        grouped: dict = {}
        for c, v in pairs:
            for P, x in v.items():
                grouped.setdefault(P, []).append((c, x))
        return {P: base.combine(terms) for P, terms in grouped.items()}

    start = combine((b, {W: base.vector(V)}) for (W, V), b in A.terms.items())
    return VectorModel(start, step, inner, combine, _as_qqi if exact else None)


def make_split_series_sandwich() -> MomentFunctional:
    """The series sandwich sum_l 2^-l omega(A_l* . A_l), A_l = s_2^{l-1} s_1 s_2^l,
    over the Cuntz state by (1, 0) on O_2.

    The base state is the vector e_{1^inf} of the permutative (shift)
    representation of 1^inf, where A_l Omega = e_{x_l} with
    x_l = 2^{l-1} 1 2^l 1 1 1 ...  So the state is the mixture
    sum_l 2^-l omega_{x_l} of vector states, with no cross terms.  (Shifted
    tails of x_l and x_l' do agree for l != l': past 2l letters every tail
    is 1^inf.)  Its model is the direct sum over l of the l-th vector's
    representation, a vector being a map with two kinds of key:

    * ("e", l, t) stands for 2^{-l/2} e_{shift^t x_l} in summand l, with t
      capped at 2l, since shift^t x_l = 1^inf from there on;
    * ("T", k) stands for T_k = sum_{l > k} 2^{-l/2} e_{shift^k x_l}.

    Omega = T_0, pi(s_2)* T_k = T_{k+1} and pi(s_1)* T_k is the key
    ("e", k+1, k+1), the one summand whose letter k+1 is 1; pi(s_i)* moves
    ("e", l, t) to ("e", l, min(t + 1, 2l)) when letter t + 1 of x_l is i
    and drops it otherwise.  The inner product weighs a shared key by 2^-l
    on ("e", l, t) and by 2^-k on ("T", k).  The keys carry l, so summands
    never pair; the T_k are orthogonal with <T_k, T_k> = 2^-k; and T_k holds
    tails at t = k < l, while every "e" key a word reaches has t >= l, so
    the two kinds never meet.  The weights are dyadic, so the moments are
    exact QQi.
    """

    def step(v: dict, i: int) -> dict:
        # each key has at most one image under a letter, and distinct keys distinct ones
        out = {}
        for key, c in v.items():
            if key[0] == "T":
                k = key[1]
                out[("T", k + 1) if i == 2 else ("e", k + 1, k + 1)] = c
            else:
                _, l, t = key
                if i == (1 if t + 1 == l or t >= 2 * l else 2):
                    out[("e", l, min(t + 1, 2 * l))] = c
        return out

    zero = QQi(0)

    def inner(a: dict, b: dict):
        # key[1] is l of ("e", l, t) and k of ("T", k)
        terms = [conj(x) * b[key] * Fraction(1, 1 << key[1]) for key, x in a.items() if key in b]
        return sum(terms[1:], terms[0]) if terms else zero

    model = VectorModel({("T", 0): QQi(1)}, step, inner, _combine_maps)
    facts = StateFacts(purity=("Pure", _PURE_IN_PURE), cuntz=((QQi(1), QQi(0)), "family"))
    return MomentFunctional(2, "sandwich_series", model, facts=facts)


# ---------------------------------------------------------------------------
# Sanity gate
# ---------------------------------------------------------------------------


def positivity_check(omega: MomentFunctional, level: int = 2):
    """PSD check of the Gram matrix of {pi(s_J)* Omega : |J| <= level}.

    Returns (ok, min_eigenvalue_estimate), as ``hermitian_psd_check`` does:
    the estimate is a float numpy eigenvalue for a state that fails, and
    None for a state that passes.  The words are listed here, so none is
    validated again; the entries are the inner products of the vectors of
    ``omega.model``, as in ``gram_matrix``: N(N+1)/2 of them for the
    N = 1 + n + ... + n^level words, each entry below the diagonal the
    conjugate of its mirror.  The exact check reads only the entries on and
    above the diagonal, and the float check and the estimate the Hermitian
    part.
    """
    return hermitian_psd_check(omega.model.gram(list(words_upto(omega.n, level))))
