"""Single particle in a waveguide: effective 1D coupling and the CIR.

A particle hops on a 2D square lattice (hopping J = 1).  One direction
is open; the other is closed off by a trapping potential, so only the
transverse ground state carries flux at low energy.  A point defect of
strength U at the origin scatters the particle.  Virtual excursions
into the closed transverse channels dress the defect into an effective
1D contact coupling U1D(U), which diverges at a confinement-induced
resonance (CIR) U_CIR < 0 and saturates for |U| -> infinity.

Run:  python3 demos/01_single_particle_cir.py
"""

import numpy as np

import q1dscatter as q

trap = q.Harmonic(omega=0.1)
spectrum = q.solve_transverse(trap, n_states=21)

print("transverse trap: harmonic, curvature 0.1, 21 states kept")
print(f"ground-state energy        E0      = {spectrum.energies[0]:+.6f}")
print(f"ground-state weight        psi0^2  = "
      f"{float(spectrum.origin_amplitudes[0])**2:.6f}")

cir = q.u_cir(spectrum)
print(f"\nresonant bare coupling     U_CIR   = {cir.u_cir:+.6f}")
print(f"channels used in the sum   n_used  = {cir.n_used}")
# every state of the trap's grid, the grid doubled until U_CIR settles
grid_basis, complete = q.u_cir_complete(trap)[-1]
print(f"complete grid basis        U_CIR   = {complete.u_cir:+.6f} "
      f"({grid_basis.n_states} states)")

print("\n  U        U1D(U)       a(U)")
couplings = [-40.0, -10.0, cir.u_cir - 1e-3, cir.u_cir + 1e-3,
             -2.0, 0.0, 2.0, 40.0, 1e6]
for u in couplings:
    r = q.effective_u1d(spectrum, u)
    print(f"{u:9.3f}  {r.u1d:+11.4f}  {r.a:+11.4f}")

# hard-core saturation: U1D(+-inf) -> -U_CIR * psi0^2
sat = -cir.u_cir * float(spectrum.origin_amplitudes[0]) ** 2
big = q.effective_u1d(spectrum, 1e6).u1d
print(f"\nhard-core limit: U1D(1e6) = {big:.6f}  vs  "
      f"-U_CIR psi0^2 = {sat:.6f}")

# phase shift at finite longitudinal momentum
k = 0.3
r = q.effective_u1d(spectrum, -2.0, k=k)
print(f"\nphase shift at k = {k}: delta_k = {r.delta_k:+.6f} rad "
      f"(tan delta = -U1D / 2J sin k)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    grid = np.linspace(-40.0, 40.0, 801)
    vals = [q.effective_u1d(spectrum, float(u)).u1d for u in grid]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(grid, vals, lw=1)
    ax.axvline(cir.u_cir, color="r", ls="--", lw=0.8,
               label=f"U_CIR = {cir.u_cir:.3f}")
    ax.axhline(sat, color="g", ls=":", lw=0.8, label="hard-core plateau")
    ax.axhline(-sat, color="g", ls=":", lw=0.8)
    ax.set_ylim(-6 * abs(sat), 6 * abs(sat))
    ax.set_xlabel("bare coupling U / J")
    ax.set_ylabel("effective 1D coupling U1D / J")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo01_single_particle_cir.png", dpi=150)
    print("\nwrote demo01_single_particle_cir.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
