"""
The orthogonal grading of an invariant subspace
===============================================

Dutkay, Haussermann and Jorgensen grade the representation space that an
s_i*-invariant subspace M generates: H_0 = M, and H_k is the part of
span{pi(s_J) M : |J| = k} orthogonal to the levels before it.  The paper
draws its sufficient condition for minimality from this grading.  A vector
in a finite-dimensional invariant M has its conjugate-cyclic space inside
M, so its state has cdim <= dim M, and kappa <= cdim.

In the shift representation of x = (12)^inf, s_1* and s_2* swap e_x and
e_x' (x' = (21)^inf) or kill them, so M = span{e_x, e_x'} is invariant.
Vectors are plain {key: coefficient} dicts; a basis key stands for its
basis vector.
"""

from fractions import Fraction

from cuntzlab import (
    EventuallyPeriodicWord,
    ShiftRepresentation,
    cdim,
    dhj_grading,
    gen,
    kappa,
    lemma_convergence_check,
    vector_state,
)

x = EventuallyPeriodicWord((), (1, 2), 2)
xp = x.shift()  # (21)^inf
rep = ShiftRepresentation(x)

# 1. The state of e_x: kappa is the period, and cdim is dim M.
state = vector_state(rep, x)
k = kappa(state)
print("shift state of (12)^inf: kappa =", k.value, "|", k.certificate, "| cdim =", cdim(state).value)

# 2. The grading generated by M: every level past H_0 doubles.
levels = dhj_grading(rep, [x, xp], 4)
print("level dimensions:       ", [len(level) for level in levels])
print("H_1 =", [{rep.key_str(key): str(c) for key, c in b.items()} for b in levels[1]])

# 3. How fast a[l]* v reaches M along the letters 1, 1, 1, 2, for
#    v = 3/5 e_{111x} + 4/5 e_x: s_1* sends 4/5 e_x to 4/5 e_x' and then
#    kills it, while the 3/5 e_{111x} part is stripped into M after three
#    letters.
v = {EventuallyPeriodicWord((1, 1, 1), (1, 2), 2): Fraction(3, 5), x: Fraction(4, 5)}
letters = (1, 1, 1, 2)
print("distances to M:         ", lemma_convergence_check(rep, [x, xp], [gen(2, i) for i in letters], v, 4))
