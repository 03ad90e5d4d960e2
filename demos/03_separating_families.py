"""
Separating families exactly
===========================

Exact arithmetic earns its keep when two states differ by a phase or a
square root that floating point would smear.  This script separates a
family of depth-3 states marked by eight exact unit phases, then shows
the purity and equivalence verdicts for mixed constructions.
"""

from fractions import Fraction

from cuntzlab import QQi, cdim, equivalent, make_mixture, make_cuntz, make_sub_cuntz, pure

# Eight exact phases on the unit circle (all Gaussian rational).
PHASES = [
    QQi(1, 0), QQi(0, 1), QQi(-1, 0), QQi(0, -1),
    QQi(Fraction(3, 5), Fraction(4, 5)),
    QQi(Fraction(3, 5), Fraction(-4, 5)),
    QQi(Fraction(-4, 5), Fraction(3, 5)),
    QQi(Fraction(5, 13), Fraction(12, 13)),
]

# Mark the depth-3 word 2 2 1 with each phase; every state has cdim 3,
# and all pairs separate -- exactly, no tolerance involved.
word = (2, 2, 1)
states = [make_sub_cuntz(3, {word: c.conjugate()}, 2) for c in PHASES]
print("cdim of each marked state:", [cdim(s).value for s in states])

pairs = 0
for i in range(len(states)):
    for j in range(i + 1, len(states)):
        verdict = equivalent(states[i], states[j]).verdict
        assert verdict == "Inequivalent", (i, j, verdict)
        pairs += 1
print(f"all {pairs} phase pairs separated")

# Purity: a determined basis-word state is pure; an even mixture of two
# orthogonal states is not; the engine also knows the averaged tensor
# square hides a two-piece decomposition.
basis = make_sub_cuntz(2, {(1, 2): 1}, 2)
print()
print("basis word state:     ", pure(basis).verdict)

mix = make_mixture([make_cuntz([1, 0]), make_cuntz([0, 1])], [Fraction(1, 2), Fraction(1, 2)])
print("even two-state mixture:", pure(mix).verdict)

x = [QQi(Fraction(3, 5)), QQi(Fraction(4, 5))]
square = {
    (a, b): x[a - 1] * x[b - 1] for a in (1, 2) for b in (1, 2)
}
avg = make_sub_cuntz(2, square, 2)
print("averaged tensor square:", pure(avg).verdict,
      "| solution space dimension:", avg.facts.solution_dim)

# And the mixture separates from any pure presentation by purity alone.
d = equivalent(basis, mix)
print()
print("basis vs mixture:", d.verdict)
print("  reason:", d.reason)
