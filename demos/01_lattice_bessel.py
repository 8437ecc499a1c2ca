"""Tour of the q-arithmetic core and the lattice Bessel function.

Evaluates q-shifted factorials, a basic hypergeometric series, the third
Jackson q-Bessel function on the lattice q^Z, and checks its orthogonality
relation with the measure weight q^x.
"""

import mpmath as mp

from qcoupling import (QContext, TruncationPolicy, bilateral_sum, qbessel_lattice,
                       qpoch_finite, qpoch_infinite, rphis)
from qcoupling.qcore import exact_product, mantissa, qpower

ctx = QContext("0.5")
q = ctx.q

print("q-shifted factorials at q = 0.5")
print("  (0.5; q)_4      =", mp.nstr(qpoch_finite(0.5, ctx, 4), 12))
print("  (0.5; q)_inf    =", mp.nstr(qpoch_infinite(0.5, ctx).value, 12))
print("  (q; q)_inf      =", mp.nstr(qpoch_infinite(q, ctx).value, 12))

print("\nbasic hypergeometric series (terminating and not)")
term = rphis([q ** -3, 0], [0.3], ctx, 0.7)
print("  upper parameter q^-3 stops the sum exactly:",
      mp.nstr(term.value, 10), "after", term.terms_used, "terms")
free = rphis([0], [q ** 2], ctx, q * mp.mpf("0.25"))
print("  open series converged to", mp.nstr(free.value, 10),
      "with tail estimate", mp.nstr(free.est_error, 3))

print("\nlattice Bessel values J_nu(q^y; q)")
for nu, y in [(0, 0), (1, 0), (2, -3), (-2, 1)]:
    print(f"  nu={nu:+d} y={y:+d}:", mp.nstr(qbessel_lattice(nu, y, ctx), 12))

print("\northogonality on the lattice: sum_x J_nu(q^{x+m}) J_nu(q^{x+n}) q^x")
# bilateral_sum adds exact terms, pairs (m, e) for m 2^e, on integers; q^x is
# the power of q^{1/2} at 2x
pol = TruncationPolicy(tail_tol=1e-16)
for nu, m, n in [(1, 0, 0), (1, 2, 2), (1, 2, -1), (-2, 1, 1)]:
    s = bilateral_sum(lambda x: exact_product(mantissa(qbessel_lattice(nu, x + m, ctx)),
                                              mantissa(qbessel_lattice(nu, x + n, ctx)),
                                              qpower(2 * x, ctx)), pol, ctx)
    target = q ** (-n) if m == n else mp.mpf(0)
    print(f"  nu={nu:+d} m={m:+d} n={n:+d}: sum={mp.nstr(s.value, 10)}"
          f"  target={mp.nstr(target, 10)}  |diff|={mp.nstr(abs(s.value - target), 3)}")
