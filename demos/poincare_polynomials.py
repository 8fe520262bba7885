"""Assemble the Poincare polynomial of the moduli space from its pieces.

The moduli space M is built in stages: a 6-dimensional geometric quotient
N, an 11-dimensional boundary model B fibred over N, and a final
substitution that replaces a P2 x P1 inside B by a P2 x P13.
"""

from quarticmoduli import (
    is_palindromic,
    poincare_B,
    poincare_H,
    poincare_M,
    poincare_open_stratum_closure,
)

h = poincare_H()
n = poincare_open_stratum_closure()
b = poincare_B()
m = poincare_M()

print(f"P(H) = {h.serialize()}")
print(f"P(N) = P(H) - P(P2)*P(P3) + P(P2)")
print(f"     = {n.serialize()}")
print(f"P(B) = P(N) * P(P11)")
print(f"     = {b.serialize()}")
print(f"P(M) = P(B) - P(P2)*P(P1) + P(P2)*P(P13)")
print(f"     = {m.serialize()}")
print()
print(f"degree:        {m.degree}")
print(f"palindromic:   {is_palindromic(m, 17)}")
print(f"Euler number:  {m.evaluate(1)}")
