"""Multivariate lattice Bessel functions and chain recoupling coefficients.

The chain coefficients factor into three-factor recoupling weights, equal a
prefactored multivariate Bessel value exactly, satisfy orthogonality in all
chain labels, and expand through the multivariate pentagon recursion.
"""

import mpmath as mp

from qcoupling import (MultiBesselParams, QContext, ThreeNJParams, TruncationPolicy,
                       multi_be_stated_form_residual, multi_orthogonality_residual,
                       multi_qbessel, multivariate_be_cross_check, threenj_R, threenj_S,
                       threenj_corollary_gap, verify_multivariate_BE)
from qcoupling.multivariate import hat

ctx = QContext("0.5")

print("multivariate lattice Bessel value and its self-duality")
p = MultiBesselParams((0, 1, 1, 0), (1, 0), (0, -1))
a = multi_qbessel(p, ctx)
b = multi_qbessel(MultiBesselParams(hat(p.nu), hat(p.lam), hat(p.x)), ctx)
print("  J =", mp.nstr(a, 12), "  reversed labels:", mp.nstr(b, 12))

print("\nnested orthogonality, innermost sum first (d = 2)")
pol = TruncationPolicy(tail_tol=1e-16)
nu = (0, 1, 0, 1)
for lam, lamp in [((0, 0), (0, 0)), ((1, -1), (1, -1)), ((1, 0), (0, 0))]:
    r = multi_orthogonality_residual(nu, lam, lamp, ctx, pol)
    tag = "delta case" if lam == lamp else "off-diagonal"
    print(f"  lam={lam} lam'={lamp} ({tag}): residual {float(r.value):.2e}")

print("\nchain recoupling coefficients (k = 2)")
tree = ThreeNJParams(1, (0, 1, 1, -1), (-1, 1), (1, 0))
print("  right-comb chain:", mp.nstr(threenj_R(tree, ctx), 12))
print("  left-hanging chain:", mp.nstr(threenj_S(tree, ctx), 12))
print("  bridge to prefactored multivariate Bessel:",
      f"{float(threenj_corollary_gap(tree, ctx)):.1e}")

print("\nmultivariate pentagon recursion (chain reference form)")
res = verify_multivariate_BE(tree, ctx)
print(f"  k=2 chain-form residual: {float(res.value):.2e}"
      f" (truncation estimate {float(res.est_error):.1e})")
stated = multi_be_stated_form_residual(tree, ctx)
print(f"  stated coefficient form residual: {float(stated.value):.2e}"
      "   <- does not close")
chain, pent, gap = multivariate_be_cross_check(tree, ctx)
print(f"  k=2 cross-check against the one-variable pentagon: chain={float(chain):.1e}"
      f" pentagon={float(pent):.1e} translation={float(gap):.1e}")
