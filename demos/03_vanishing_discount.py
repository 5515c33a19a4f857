"""The vanishing-discount sweep and its rescaled measures.

Driving the discount to zero only converges after the instance is
normalized by its ergodic constants; unnormalized, the values blow up
like c / lambda and the sweep flags divergence.  On the normalized
instance the ladder is Cauchy, and the rescaled minimizing measures
lam * mu^lam converge to a Mather measure: a closed measure of minimal
(here zero) cost concentrated on the cheapest circuit.  That the minimum
is zero needs no LP: the ergodic field certifies it.

Run:  python demos/03_vanishing_discount.py
"""

import numpy as np

import discountlab as dl

raw = dl.standard_system("eikonal-f", N=32)

print("unnormalized sweep (ergodic constant -1):")
sweep = dl.discount_sweep(raw, 0.5, 0.5, 22, tol=1e-9)
print(f"  uniform bound {sweep.uniform_bound:.3e}, "
      f"divergent = {sweep.divergent}")

normalized, erg = dl.ergodic_normalize(raw, lam=0.01, tol=1e-12)
print(f"\nergodic constant {erg.c}, shifting costs accordingly")

sweep = dl.discount_sweep(normalized, 0.5, 0.5, 18, tol=1e-10)
print("lambda        sup|v|      gap to next rung")
for lam, field, gap in zip(sweep.lambdas, sweep.fields,
                           sweep.cauchy_gaps + [float("nan")]):
    if lam in (0.5, 0.0625, 0.0009765625, sweep.lambdas[-1]):
        print(f"{lam:.3e}  {np.max(np.abs(field)):.6f}   {gap:.3e}")
print(f"uniform bound {sweep.uniform_bound:.4f}, "
      f"divergent = {sweep.divergent}")

nu, min_value, _ = dl.mather_lp(normalized)
print(f"\nMather LP minimum {min_value:.2e} (zero on a normalized instance)")
# no LP needed: the ergodic field is a lam = 0 subsolution, so (u, 0) is
# a dual point of value 0 and nu = 0 attains it (weak duality)
residual = np.max(dl.bellman_residual(normalized, 0.0, erg.u))
certified = dl.mather_certificate(normalized, erg.u)
print(f"ergodic field's lam = 0 residual {residual:.2e} "
      f"(<= {dl.lp.FEAS_TOL:.0e}): certified minimum {certified[1]}")

scaled = dl.mather_from_sweep(normalized, sweep, 0, 0)
from discountlab.limits import closedness_residual
print(f"rescaled sweep measure: mass {scaled.total_mass():.6f}, "
      f"closedness residual {closedness_residual(normalized, scaled):.2e}, "
      f"<nu, L> = {scaled.pair_cost(normalized):.2e}")
heavy = np.unravel_index(np.argmax(scaled.weights[0]), scaled.weights[0].shape)
print(f"heaviest atom at state {heavy[0]} (x = {heavy[0] / 32}), "
      f"control {heavy[1]} (the zero-drift control at the cost minimizer)")
