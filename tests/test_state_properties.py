"""Structure identities across generated exact states with a vector model.

Hypothesis draws exact induced products and exact shift and grid vector
states (basis vectors and superpositions with Gaussian rational
coefficients), and exact unitaries built from phases and Pythagorean
rotations.  Every state must satisfy

* Hermitian symmetry: omega(s_K s_J*) = conj(omega(s_J s_K*));
* the row relation: sum_i omega(s_J s_i s_i* s_K*) = omega(s_J s_K*);
* gauge invariance of the level ranks: omega o alpha_g has the Gram ranks
  of omega at every level, since alpha_g maps span{s_J : |J| <= L} onto
  itself.

The identities hold by the Cuntz relations, independently of how the
moments are computed.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import (
    EventuallyPeriodicWord,
    GridRepresentation,
    QQi,
    ShiftRepresentation,
    StateVector,
    cdim,
    make_induced_product,
    transform_gauge,
    vector_state,
)
from cuntzlab.linalg import mat_mul
from cuntzlab.scalars import conj

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


states = st.one_of(induced_products(), shift_states(), grid_states())

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
    assert twisted.facts.model is not None
    assert cdim(twisted, 3).level_ranks == cdim(omega, 3).level_ranks
