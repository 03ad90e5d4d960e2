"""
First states and their invariants
=================================

A walk through the basic objects: moment functionals on the algebra of n
isometries, exact Gaussian-rational evaluation, and the two headline
invariants (the correlation dimension cdim and its equivalence-class
minimum kappa).
"""

from fractions import Fraction

from cuntzlab import QQi, cdim, kappa, make_cuntz, make_prefix_code_state

# A state is parameterized concretely.  The simplest family takes a unit
# vector z and acts like a coherent state: omega(s_J s_K*) = conj(z_J) z_K.
z = [QQi(Fraction(3, 5)), QQi(Fraction(4, 5))]
omega = make_cuntz(z)

print("omega(s_1 s_2*)      =", omega.moment((1,), (2,)))  # 12/25, exact
print("omega(s_12 s_21*)    =", omega.moment((1, 2), (2, 1)))  # 144/625

# cdim counts the dimensions the annihilators can reach from the cyclic
# vector.  For this family that span is one-dimensional, and the engine
# can tell exactly: the Gram matrix of candidate vectors stabilizes.
r = cdim(omega)
print("cdim =", r.value, f"({r.status}), level ranks {list(r.level_ranks)}")

# kappa asks for the smallest cdim across everything unitarily equivalent.
k = kappa(omega)
print("kappa =", k.value, "certified by", type(k.certificate).__name__)

# A state supported on one repeating word behaves differently: the word
# (1 2) repeats with period two, so two tail vectors appear.
word_state = make_prefix_code_state([(1, 2)], {(1, 2): 1}, 2)
print()
print("word state omega'(s_12)   =", word_state.moment((1, 2)))  # 1
print("word state omega'(s_1)    =", word_state.moment((1,)))  # 0
r2 = cdim(word_state)
print("cdim =", r2.value, "with pivot words", r2.pivot_words)
k2 = kappa(word_state)
print("kappa =", k2.value, "- the certificate names an isometry:", k2.certificate)
