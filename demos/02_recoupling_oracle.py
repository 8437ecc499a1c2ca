"""Recoupling coefficients two ways: truncated representation versus closed form.

Builds the truncated representation of the deformed SU(2) function algebra,
couples three copies through the coproduct in the two bracketings, and
compares the inner-product overlaps with the closed-form expression: a
sign-power times a lattice Bessel value in the squared base.
"""

from qcoupling import (QContext, TruncatedFock, check_defining_relations, coupled_vector,
                       generator_band, sixj_closed, sixj_oracle)

ctx = QContext("0.5")
fock = TruncatedFock(60)

print("generators as band maps on the truncated space")
print("  max interior residual of the defining relations:",
      f"{check_defining_relations(TruncatedFock(10), ctx):.2e}")
shift, weights = generator_band("gamma", TruncatedFock(4), ctx)
print(f"  gamma acts diagonally (shift {shift}):", weights)

print("\ncoupled eigenvectors of the positivized diagonal element")
v = coupled_vector("1(23)", 1, 0, 0, fock, ctx)
w = coupled_vector("(12)3", 1, 0, 0, fock, ctx)
print(f"  norms: {v.norm():.12f}, {w.norm():.12f}  (orthonormal families)")
print(f"  support sizes: {len(v.coeffs)}, {len(w.coeffs)} basis triples")

print("\noverlap oracle against the closed form")
print("  x p1 r1 p2 r2 |    oracle       closed        |diff|")
for (x, p1, r1, p2, r2) in [(1, 0, 0, 0, 0), (0, 1, 0, -1, 0), (2, 2, 1, -1, 1),
                            (1, 0, 1, 0, 2), (2, -2, -1, 1, -1)]:
    o = sixj_oracle(x, p1, r1, p2, r2, fock, ctx)
    c = float(sixj_closed(p1, r1, p2, r2, ctx))
    print(f"  {x} {p1:+d} {r1:+d} {p2:+d} {r2:+d} | {o:+.10f} {c:+.10f}  {abs(o - c):.1e}")

print("\nthe overlap does not depend on the total eigenvalue label:")
for x in (0, 1, 2, 3):
    print(f"  x={x}:", f"{sixj_oracle(x, 1, -1, 0, -1, fock, ctx):+.12f}")
