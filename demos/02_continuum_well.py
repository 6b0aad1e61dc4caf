"""Continuum-supporting trap: a single attractive site in the open lattice.

A delta-well trap of depth V0 holds exactly one transverse bound state;
every other transverse mode is an extended scattering state labelled by
a continuous momentum q.  The closed-channel sum over discrete levels
becomes an integral over the scattering continuum, weighted by the
origin amplitude cos^2(theta_q) of each phase-shifted wave and by the
density of states.  The CIR survives in this limit and its position
moves monotonically with the well depth.

Run:  python3 demos/02_continuum_well.py
"""

import numpy as np

import q1dscatter as q

well = q.DeltaWell(v0=1.0)
print(f"delta well, depth V0 = {well.v0}")
e0 = float(q.solve_transverse(q.DeltaWell(v0=1.0, y_max=400.0))
           .energies[0])
print(f"bound-state energy E0 = {e0:+.6f}"
      "   (closed form: V0 - sqrt(V0^2 + 4 J^2) = -1.236068)")

# one scattering state of the transverse continuum
state = q.scattering_state(well, 0.7)
print(f"\nscattering state at q = {state.q}:")
print(f"  phase shift      theta   = {state.theta:+.6f}")
print(f"  origin amplitude phi0^2  = {state.phi0**2:.6f} "
      "(= cos^2 theta)")
print(f"  level-density excess     = {state.dtheta_dq / np.pi:+.6f}")

s = q.continuum_sum(well)
print(f"\ncontinuum channel sum     = {s.value:+.10f}")
print(f"quadrature error estimate = {s.quadrature_error:.2e}")

# witness: the same well in a hard-walled box of 401 sites, where the
# continuum is a discrete set of closed channels and the bound-state sum
# over the complete basis is exact
box = q.Tabulated.from_mapping(
    {y: 0.0 if y == 0 else well.v0 for y in range(-200, 201)})
box_sum = q.u_cir(q.solve_transverse(box)).inverse
print(f"box sum on 401 sites      = {box_sum:+.10f} "
      f"(diff {abs(s.value - box_sum):.2e})")

cir = q.u_cir_with_continuum(well)
print(f"\nCIR with continuum states: U_CIR = {cir.u_cir:+.10f}")

print("\n  V0        U_CIR(V0)      (monotone: deeper well, "
      "more negative resonance)")
depths = np.geomspace(0.2, 5.0, 9)
for v0 in depths:
    c = q.u_cir_with_continuum(q.DeltaWell(v0=float(v0)))
    print(f"{v0:7.3f}   {c.u_cir:+12.6f}")

# a tabulated single-site trap with a continuum asymptote reproduces the
# closed-form delta well exactly
tab = q.Tabulated.from_mapping({0: 0.0}, 1.0)
c_tab = q.u_cir_with_continuum(tab)
print(f"\ntabulated single-site equivalent: U_CIR = {c_tab.u_cir:+.10f} "
      f"(diff {abs(c_tab.u_cir - cir.u_cir):.2e})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    v0s = np.geomspace(0.1, 10.0, 60)
    cirs = [q.u_cir_with_continuum(q.DeltaWell(v0=float(v))).u_cir
            for v in v0s]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogx(v0s, cirs, lw=1.2)
    ax.set_xlabel("well depth V0 / J")
    ax.set_ylabel("U_CIR / J")
    ax.set_title("CIR position for a continuum-supporting well")
    fig.tight_layout()
    fig.savefig("demo02_continuum_well.png", dpi=150)
    print("\nwrote demo02_continuum_well.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
