"""Selecting the limit among the many undiscounted solutions.

At lambda = 0 the system typically has a continuum of solutions (any
additive shift of a weak-KAM field can solve it), yet the discounted
family converges to exactly one of them.  The selection principle
characterizes that limit pointwise: the largest subsolution value
subject to pairing nonpositively with every Mather measure.  The Mather
face is enumerated exactly from LP bases over its support, and the two
pipelines (sweep limit versus selection LPs) must agree at every grid
point.

Run:  python demos/04_selection_principle.py
"""

import numpy as np

import discountlab as dl

tiny = dl.standard_system("eikonal-f", N=4)
tiny, erg = dl.ergodic_normalize(tiny, lam=0.01, tol=1e-12)
print(f"tiny instance: {tiny.total_vars} measure variables, costs "
      f"{np.round(tiny.cost[0][:, 1], 6).tolist()} at xi = 0")

mset = dl.mather_face_samples(tiny, 16, seed=0)
print(f"\nMather face: min value {mset.min_value:.2e}, "
      f"{len(mset.representatives)} vertices (exhaustive = {mset.exhaustive}, "
      f"support {mset.support_columns[0]} of {mset.support_columns[1]} "
      f"columns)")
for nu in mset.representatives:
    atoms = [(int(x), int(a), round(float(w), 6))
             for x, a in zip(*np.nonzero(nu.weights[0]))
             for w in (nu.weights[0][x, a],)]
    print(f"  vertex with mass {nu.total_mass():.3f}: atoms {atoms or '[]'}")

sweep = dl.discount_sweep(tiny, 0.5, 0.5, 24, tol=1e-11)
selection = dl.selection_field(tiny, mset)
print("\nsweep limit:    ", np.round(sweep.limit_candidate[0], 9).tolist())
print("selection field:", np.round(selection[0], 9).tolist())

report = dl.convergence_report(tiny, sweep, selection, mset)
print(f"\nsup gap {report.limit_vs_selection_gap:.2e}, "
      f"max measure pairing {max(report.measure_pairings):.2e}, "
      f"verdict pass = {report.passed}")

# Dropping the mass-carrying vertex leaves the additive freedom unpinned:
# the selection LP becomes unbounded along the constant direction.
from discountlab.errors import UnboundedLP
from discountlab.limits import MatherSet

zero_only = MatherSet([nu for nu in mset.representatives
                       if nu.total_mass() == 0.0], 0.0)
try:
    dl.selection_solve(tiny, zero_only, 0, 0)
except UnboundedLP as exc:
    ray = exc.ray / np.max(np.abs(exc.ray))
    print(f"\nwith only the zero measure: unbounded along {ray.tolist()}")
