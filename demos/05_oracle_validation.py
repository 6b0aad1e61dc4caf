"""Brute-force cross-check: scattering lengths from strip diagonalization.

Everything else in this package goes through the closed-channel
formalism.  This demo validates it against a method that shares none of
that machinery: put the full problem on a finite strip (open direction
x hard-walled at +-Lx, transverse trap in y), diagonalize the sparse
Hamiltonian, read the scattering length off the node of the lowest
even scattering state, and extrapolate k -> 0 with a rational
least-squares fit in k^2 over the strip's states.  The strip is solved
in the symmetry sector that holds the even scattering states (even in
x, even under the transverse mirror y -> -y on a mirror-symmetric trap
and, for a pair, symmetric under y1 <-> y2), with one sparse
factorization.

Run:  python3 demos/05_oracle_validation.py   (takes ~1 s)
"""

import math

import q1dscatter as q

print("single particle, two-site trap, U = -2")
two = q.solve_transverse(q.TwoSite(v=1.0))
theory = q.effective_u1d(two, -2.0).a
for lx in (100, 200, 400):
    res = q.strip_scattering_length(
        q.StripProblem(trap=q.TwoSite(v=1.0), u=-2.0, lx=lx))
    print(f"  Lx = {lx:4d}:  a_strip = {res.a:+.10f}   "
          f"theory {theory:+.10f}   |diff| = {abs(res.a - theory):.2e}")

print("\nsingle particle, soft harmonic trap (curvature 0.01), U = -2")
soft = q.solve_transverse(q.Harmonic(omega=1e-2), n_states=80)
theory = q.effective_u1d(soft, -2.0).a
res = q.strip_scattering_length(
    q.StripProblem(trap=q.Harmonic(omega=1e-2), u=-2.0, lx=400))
print(f"  Lx =  400:  a_strip = {res.a:+.10f}   theory {theory:+.10f}   "
      f"rel diff = {abs(res.a - theory) / abs(theory):.2e}")
print(f"  fit quality: entrance weight {res.entrance_weight:.4f}, "
      f"residual {res.fit_residual:.1e}, "
      f"closed-channel contamination {res.contamination:.1e}")

print("\ninteracting pair, two-site trap, U = -5 and U = +5")
kernel = q.build_kernel(q.solve_transverse(q.TwoSite(v=1.0)))
for u in (-5.0, 5.0):
    theory = q.solve_scattering_length(kernel, u).a
    res = q.pair_scattering_length(
        q.StripProblem(trap=q.TwoSite(v=1.0), u=u, lx=200))
    print(f"  U = {u:+.0f}:  a_strip = {res.a:+.10f}   "
          f"theory {theory:+.10f}   |diff| = {abs(res.a - theory):.2e}")

print("\nmoving pair (total momentum K = pi/3), hard-wall harmonic box")
trap = q.Tabulated.from_mapping({y: 0.1 * y * y for y in range(-6, 7)},
                                None)
spec = q.solve_transverse(trap)
momentum = math.pi / 3
ed = q.pair_scattering_length(
    q.StripProblem(trap=trap, u=-5.0, lx=200), total_momentum=momentum)
a_th = q.solve_scattering_length(
    q.build_kernel(spec, total_momentum=momentum), -5.0).a
print(f"  a_strip = {ed.a:+.10f}   theory {a_th:+.10f}   "
      f"|diff| = {abs(ed.a - a_th):.2e}")
print("  (the collective hopping 2 J cos(K/2) is what brute force "
      "selects;")
alt = q.solve_scattering_length(
    q.build_kernel(spec, total_momentum=2.0 * momentum), -5.0).a
print(f"   the sign/argument misreading would give {alt:+.6f}, "
      f"off by {abs(ed.a - alt):.3f})")
