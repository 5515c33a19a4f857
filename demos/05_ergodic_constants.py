"""Ergodic constants by Anderson-mixed fixed-point iteration.

One sweep of the map freezes the coupling slot at the current field,
solves the uncoupled scalar systems, and renormalizes to minimum zero;
the next field mixes the last few sweeps (a damped step when there is
no usable history).
A fixed point solves H_discrete[u] = c exactly with c read off the
normalization; for the eikonal family the constant equals minus the
grid minimum of the forcing, here exactly -1 at every even resolution.

Run:  python demos/05_ergodic_constants.py
"""

import numpy as np

import discountlab as dl

model = dl.make_model("eikonal-f")            # forcing 2 + cos(2 pi x)
profile = dl.coercivity_profile(model, R=4.0, radii=[1, 2, 4, 8],
                                sample_density=16)
print("coercivity profile alpha(r):",
      [(r, round(a, 6)) for r, a in profile.table], "beta:", profile.beta)
print("solvability condition (beta < alpha(2R/sqrt(n))):",
      dl.check_erg_condition(profile, n=1))

print("\nN      c            residual    outer sweeps")
for N in (64, 256, 512):
    sys_ = dl.standard_system("eikonal-f", N=N)
    res = dl.ergodic_solve(sys_, 0.01, tol=1e-9)
    print(f"{N:4d}  {res.c[0]:+.9f}  {res.residual:.2e}  "
          f"{res.outer_iterations}")

coupled = dl.standard_system("quadratic-plc")
res = dl.ergodic_solve(coupled, 0.05, tol=1e-11)
print(f"\nquadratic-plc (coupled, m=2): c = {np.round(res.c, 9).tolist()}, "
      f"residual {res.residual:.2e}")
print("normalized fields have minimum zero per mode:",
      np.min(res.u, axis=1).tolist())
