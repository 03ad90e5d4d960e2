"""Structure identities across generated exact states with a vector model.

Hypothesis draws exact induced products, exact shift and grid vector states
(basis vectors and superpositions with Gaussian rational coefficients),
prefix-code states (Cuntz states included), sandwiches of those by
A = sum_l c_l s_{W_l} and mixtures of any two, and exact unitaries built
from phases and Pythagorean rotations.  Every state must satisfy

* Hermitian symmetry: omega(s_K s_J*) = conj(omega(s_J s_K*));
* the row relation: sum_i omega(s_J s_i s_i* s_K*) = omega(s_J s_K*);
* gauge invariance of the level ranks: omega o alpha_g has the Gram ranks
  of omega at every level, since alpha_g maps span{s_J : |J| <= L} onto
  itself.

The identities hold by the Cuntz relations, independently of how the
moments are computed.

Every family builds its own model, and each model must agree with the
formula it replaces, computed without a model:

* a prefix-code state is fixed by its minimal isometry u:
  omega(s_J s_K* u) = omega(s_J s_K*), u multiplied out, and a unit
  combination u = sum_W z_W s_W over a prefix code is an isometry in the
  creation span, u* u multiplied out;
* a sandwich's moments are omega(A* s_J s_K* A), multiplied out over the
  base;
* a finitely correlated state's presentation gives its moments back:
  extract_fcs(omega).model().moment(J, K) = omega(s_J s_K*);
* a mixture's twists and delta tables equal the double sums that define
  them: omega(alpha_g(s_J) alpha_g(s_K)*) summed over the words of both
  gauge images, and the delta table of row isometries a_i = sum_j z_j s_j
  with the prefix products a_1..a_l multiplied out and omega summed over
  their terms.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import (
    CuntzElement,
    EventuallyPeriodicWord,
    FCSPresentation,
    GridRepresentation,
    QQi,
    ShiftRepresentation,
    StateVector,
    adjoint,
    all_words,
    cdim,
    extract_fcs,
    identity,
    make_cuntz,
    make_induced_product,
    make_mixture,
    make_prefix_code_state,
    monomial,
    multiply,
    transform_gauge,
    transform_sandwich,
    vector_state,
    verify_properly_infinite,
)
from cuntzlab.linalg import mat_mul
from cuntzlab.scalars import conj
from cuntzlab.symalg import gauge_image, is_isometry_in_plus

alphabets = st.integers(2, 3)
small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
gaussians = st.builds(QQi, small, small)


def _stereographic(p):
    """The unit vector of Q(i)^n over the 2n - 1 rationals p, by inverse stereographic projection."""
    s = sum(x * x for x in p)
    coords = [2 * x / (s + 1) for x in p] + [(s - 1) / (s + 1)]
    return [QQi(coords[2 * j], coords[2 * j + 1]) for j in range(len(coords) // 2)]


def units(n):
    return st.lists(small, min_size=2 * n - 1, max_size=2 * n - 1).map(_stereographic)


@st.composite
def induced_products(draw):
    n = draw(alphabets)
    pre = draw(st.lists(units(n), max_size=2))
    rep = draw(st.lists(units(n), min_size=1, max_size=3))
    return make_induced_product(pre, rep, n)


def _letters(n, lo, hi):
    return st.lists(st.integers(1, n), min_size=lo, max_size=hi).map(tuple)


@st.composite
def shift_states(draw):
    n = draw(alphabets)
    x = EventuallyPeriodicWord(draw(_letters(n, 0, 2)), draw(_letters(n, 1, 3)), n)
    keys = [x] + [x.prepend(w) for w in draw(st.lists(_letters(n, 1, 2), max_size=2))]
    return _superposition(draw, ShiftRepresentation(x), keys)


@st.composite
def grid_states(draw):
    n = draw(alphabets)
    keys = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(-2, 2)), min_size=1, max_size=3))
    return _superposition(draw, GridRepresentation(n), keys)


def _superposition(draw, rep, keys):
    coeffs = {key: draw(gaussians) for key in keys}
    if all(c == 0 for c in coeffs.values()):
        coeffs[keys[0]] = QQi(1)
    return vector_state(rep, StateVector(coeffs))


@st.composite
def prefix_codes(draw, n):
    """A prefix code over n letters: the letters, with up to two leaves split
    into their n children (words of at most three letters), some leaves
    dropped so the code need not be complete."""
    leaves = [(i,) for i in range(1, n + 1)]
    for _ in range(draw(st.integers(0, 2))):
        W = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        leaves += [W + (i,) for i in range(1, n + 1)] if len(W) < 3 else [W]
    keep = draw(st.lists(st.booleans(), min_size=len(leaves), max_size=len(leaves)))
    return [W for W, k in zip(leaves, keep) if k] or leaves[:1]


@st.composite
def code_states(draw):
    """A Cuntz state, or the state fixed by u = sum_W z_W s_W on a drawn code."""
    n = draw(alphabets)
    if draw(st.booleans()):
        return make_cuntz(draw(units(n)))
    code = draw(prefix_codes(n))
    return make_prefix_code_state(code, draw(units(len(code))), n)


@st.composite
def sandwich_terms(draw):
    """A drawn code state and the terms (c_l, s_{W_l}) of A = sum_l c_l s_{W_l},
    over distinct words of one length with sum |c_l|^2 = 1, so that
    omega(A* . A) has mass exactly 1."""
    base = draw(code_states())
    n = base.n
    words = draw(st.lists(st.sampled_from(list(all_words(n, draw(st.integers(1, 2))))),
                          min_size=1, max_size=3, unique=True))
    return base, list(zip(draw(units(len(words))), (monomial(n, W) for W in words)))


sandwiches = sandwich_terms().map(lambda case: transform_sandwich(*case))
finite_states = st.one_of(code_states(), sandwiches)
states = st.one_of(induced_products(), shift_states(), grid_states(), finite_states)

_PHASES = (QQi(1), QQi(0, 1), QQi(-1), QQi(Fraction(3, 5), Fraction(4, 5)), QQi(Fraction(5, 13), Fraction(-12, 13)))


@st.composite
def unitaries(draw, n):
    """A product of a phase diagonal and a Pythagorean rotation in one coordinate plane."""
    diag = [[draw(st.sampled_from(_PHASES)) if i == j else QQi(0) for j in range(n)] for i in range(n)]
    c, s = draw(st.sampled_from(((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)))))
    i = draw(st.integers(0, n - 2))
    rot = [[QQi(1 if a == b else 0) for b in range(n)] for a in range(n)]
    rot[i][i], rot[i][i + 1], rot[i + 1][i], rot[i + 1][i + 1] = QQi(c), QQi(s), QQi(-s), QQi(c)
    return mat_mul(diag, rot)


@st.composite
def state_and_words(draw):
    omega = draw(states)
    return omega, draw(_letters(omega.n, 0, 4)), draw(_letters(omega.n, 0, 4))


@given(state_and_words())
def test_hermitian_symmetry(case):
    omega, J, K = case
    assert omega.moment(K, J) == conj(omega.moment(J, K))


@given(state_and_words())
def test_row_relation(case):
    omega, J, K = case
    total = sum((omega.moment(J + (i,), K + (i,)) for i in range(1, omega.n + 1)), 0)
    assert total == omega.moment(J, K)


@st.composite
def state_and_unitary(draw):
    omega = draw(states)
    return omega, draw(unitaries(omega.n))


@settings(max_examples=40)
@given(state_and_unitary())
def test_level_ranks_are_gauge_invariant(case):
    omega, g = case
    twisted = transform_gauge(omega, g)
    # the twist steps the base's model on the same vectors
    assert twisted.model.inner is omega.model.inner and twisted.model.vector(()) is omega.model.vector(())
    assert cdim(twisted, 3).level_ranks == cdim(omega, 3).level_ranks


@st.composite
def mixtures(draw, parts=states):
    """omega_1 with weight w and omega_2 with weight 1 - w, over one alphabet."""
    first = draw(parts)
    second = draw(parts.filter(lambda omega: omega.n == first.n))
    w = QQi(draw(st.sampled_from((Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)))))
    return make_mixture([first, second], [w, 1 - w])


@st.composite
def code_state_and_words(draw):
    omega = draw(code_states())
    return omega, draw(_letters(omega.n, 0, 3)), draw(_letters(omega.n, 0, 3))


@settings(max_examples=30)
@given(code_state_and_words())
def test_a_code_state_is_fixed_by_its_minimal_isometry(case):
    omega, J, K = case
    u = omega.facts.minimal_isometry
    assert omega.moment_of_element(multiply(monomial(omega.n, J, K), u)) == omega.moment(J, K)


@st.composite
def sandwich_and_words(draw):
    base, terms = draw(sandwich_terms())
    return base, terms, draw(_letters(base.n, 0, 3)), draw(_letters(base.n, 0, 3))


@settings(max_examples=30)
@given(sandwich_and_words())
def test_sandwich_moments_are_the_multiplied_out_product(case):
    base, terms, J, K = case
    omega = transform_sandwich(base, terms)
    A = sum((c * W for c, W in terms[1:]), terms[0][0] * terms[0][1])
    assert base.moment_of_element(multiply(multiply(adjoint(A), monomial(base.n, J, K)), A)) == omega.moment(J, K)


@settings(max_examples=15)
@given(st.one_of(finite_states, mixtures(finite_states)), st.data())
def test_the_presentation_gives_the_moments_back(omega, data):
    F = extract_fcs(omega)
    assert isinstance(F, FCSPresentation)
    for _ in range(3):
        J, K = data.draw(_letters(omega.n, 0, 4)), data.draw(_letters(omega.n, 0, 4))
        assert F.model().moment(J, K) == omega.moment(J, K), (J, K)


@st.composite
def mixture_twist_and_words(draw):
    omega = draw(mixtures())
    pairs = st.tuples(_letters(omega.n, 0, 3), _letters(omega.n, 0, 3))
    return omega, draw(unitaries(omega.n)), draw(st.lists(pairs, min_size=1, max_size=4))


@settings(max_examples=15)
@given(mixture_twist_and_words())
def test_twisted_mixture_moments_are_the_double_sum(case):
    omega, g, pairs = case
    twisted = transform_gauge(omega, g)
    for J, K in pairs:
        image_k = gauge_image(g, K)
        want = sum((a * conj(b) * omega.moment(Jp, Kp)
                    for Jp, a in gauge_image(g, J).items() for Kp, b in image_k.items()), 0)
        assert twisted.moment(J, K) == want, (J, K)


@st.composite
def mixture_and_row_isometries(draw):
    omega = draw(mixtures())
    rows = draw(st.lists(units(omega.n), min_size=1, max_size=3))
    return omega, [CuntzElement(omega.n, {((j + 1,), ()): z for j, z in enumerate(row)}) for row in rows]


@settings(max_examples=15)
@given(mixture_and_row_isometries())
def test_mixture_delta_table_is_the_multiplied_out_double_sum(case):
    omega, seq = case
    prods = [identity(omega.n)]
    for a in seq:
        prods.append(multiply(prods[-1], a))
    vecs = [{J: c for (J, _), c in p.terms.items()} for p in prods]
    want = tuple(
        tuple(sum((x * conj(y) * omega.moment(J, K) for J, x in vecs[l].items() for K, y in vecs[k].items()), 0)
              for k in range(1, len(seq) + 1))
        for l in range(1, len(seq) + 1))
    assert verify_properly_infinite(omega, seq, cutoff=len(seq)).table == want


@st.composite
def unit_combinations(draw):
    """u = sum_W z_W s_W over a drawn prefix code, with a unit vector z."""
    n = draw(alphabets)
    code = draw(prefix_codes(n))
    return CuntzElement(n, {(W, ()): c for W, c in zip(code, draw(units(len(code)))) if c != 0})


@settings(max_examples=60)
@given(unit_combinations())
def test_a_unit_combination_over_a_prefix_code_is_an_isometry(u):
    # s_W* s_W' = delta_WW' I, so u*u = sum_W |z_W|^2 I: make_prefix_code_state
    # takes the unit check on its coefficients as the proof that u is an isometry
    assert is_isometry_in_plus(u) == (True, True)
