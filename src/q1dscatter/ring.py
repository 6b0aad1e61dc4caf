"""Scattering on a finite periodic quasi-1D space (a ring of ``L``
sites wrapped along the free direction).

The scattering states on the ring carry one allowed quasi-momentum per
branch, fixed by the transcendental equation

    2 J sin(k) tan(k L / 2) = U |psi_0(0)|^2 / (1 + U Sigma_L(k)),

where ``Sigma_L`` is the closed-channel sum with ring-corrected decay
terms,

    Sigma_L(k) = sum_{n>=1} |psi_n(0)|^2 (1 + alpha_n^L)
                 / [ (E_n - E)(1 + alpha_n^L) - 2 J (alpha_n + alpha_n^{L-1}) ],

``E = -2 J cos k + E_0`` and ``alpha_n = alpha_n(k)`` evaluated
self-consistently at the same energy.  Each denominator equals
``(J/alpha)(1 - alpha^2)(1 - alpha^L) > 0``, so every term of
``Sigma_L`` is positive; as ``L -> infinity`` the ring sum reduces to
the infinite-system channel sum and the equation collapses to the
quantization rule ``k L + 2 delta_k = 2 pi m``.

No scattering length exists at finite ``L``: ``k = 0`` never solves the
equation for ``U != 0``.  Whenever the allowed energy crosses a
"fermionized" level ``-2 J cos((2n+1) pi / L) + E_0`` (the energy of a
free antisymmetric state) the system is at a confinement-induced
resonance; those crossings exist only at attractive coupling.

Branches are indexed by the free momentum they contain: branch ``b``
covers the open interval ``((2b-1) pi / L, (2b+1) pi / L)`` between
consecutive singularities of ``tan(k L / 2)`` and contains the free
solution ``k = 2 pi b / L`` at ``U = 0``.

Roots are found on the pole-free form of the equation (both sides
multiplied through by ``cos(kL/2) (1 + U Sigma_L)``).  A sweep over
couplings scans each branch on one fixed grid, where ``Sigma_L``, which
does not depend on the coupling, is evaluated once, and polishes every
bracketed root of the sweep together: each bracket is one lane of a
numpy port of scipy's ``brentq`` loop, so a root is brentq's to the
last bit, and each iteration evaluates all live lanes in one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BranchCollision, ConfigError, NoConvergence,
                     NoRootInBranch)
from .single_particle import effective_u1d
from .traps import J, TransverseSpectrum, closed_channels

_EDGE_PAD_HALF_ANGLE = 1e-8  # keep |kL/2 - (pi/2 + m pi)| above this
_SCAN_POINTS = 400
_ROOT_SEPARATION = 1e-8
_RESIDUAL_TOL = 1e-10
# brentq's stopping rule for every ring root (its default maxiter)
_XTOL, _RTOL, _MAXITER = 1e-15, 8.9e-16, 100


@dataclass(frozen=True)
class RingSolution:
    """One allowed ring momentum.

    ``energy`` is ``-2 J cos k`` relative to the transverse ground
    energy; ``residual`` is the relative mismatch of the momentum
    equation at `k`.
    """

    L: int
    u: float
    branch: int
    k: float
    energy: float
    residual: float


@dataclass(frozen=True)
class RingCrossing:
    """A coupling where the allowed energy meets a fermionized level.

    ``level`` indexes the crossed level ``k = (2*level + 1) pi / L``.
    """

    level: int
    k: float
    u: float


def _coupled_channels(spectrum: TransverseSpectrum
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``psi_n(0)^2`` and ``E_n`` of the excited states that touch the
    impurity site."""
    amp2 = spectrum.origin_amplitudes[1:] ** 2
    coupled = amp2 != 0.0
    return amp2[coupled], spectrum.energies[1:][coupled]


def _entrance_energies(spectrum: TransverseSpectrum, k):
    """``E(k) = -2 J cos k + E_0`` at every momentum of `k`."""
    return -2.0 * J * np.cos(k) + float(spectrum.energies[0])


def _ring_sums(spectrum: TransverseSpectrum, k, L: int) -> np.ndarray:
    """``Sigma_L`` at every momentum of `k` (a float or an array): one
    (k x n) array pass over the states that touch the impurity site.

    States with ``psi_n(0) = 0`` never enter, open or not; an open one
    that does raises :class:`OpenChannel` for the first (k, n) in
    row-major order.
    """
    if L < 4:
        raise ConfigError(f"ring length must be at least 4 sites, got L={L}")
    amp2, channels = _coupled_channels(spectrum)
    energy = np.asarray(_entrance_energies(spectrum, k))[..., None]
    alpha, _ = closed_channels(channels, energy)
    # where alpha^(L-2) <= 2^-64, 1 + alpha^L == 1 and alpha + alpha^(L-1)
    # == alpha exactly: leave those (often subnormal) powers at zero
    far = alpha > 2.0 ** (-64.0 / (L - 2))
    a_l = np.power(alpha, L, out=np.zeros_like(alpha), where=far)
    a_l1 = np.power(alpha, L - 1, out=np.zeros_like(alpha), where=far)
    num = amp2 * (1.0 + a_l)
    den = (channels - energy) * (1.0 + a_l) - 2.0 * J * (alpha + a_l1)
    return (num / den).sum(axis=-1)


def ring_channel_sum(spectrum: TransverseSpectrum, k: float, L: int) -> float:
    """Ring-corrected closed-channel sum ``Sigma_L(k)`` (positive).

    Uses every excited state present in `spectrum`; solve the trap with
    more states to tighten the channel cutoff.
    """
    return float(_ring_sums(spectrum, k, L))


def _branch_interval(L: int, branch: int) -> tuple[float, float]:
    if branch < 0:
        raise ConfigError(f"branch index must be nonnegative, got {branch}")
    lo = max((2 * branch - 1) * math.pi / L, 0.0)
    hi = (2 * branch + 1) * math.pi / L
    if lo >= math.pi:
        raise ConfigError(
            f"branch {branch} lies outside the momentum window (0, pi) "
            f"for L={L}")
    hi = min(hi, math.pi)
    pad = 2.0 * _EDGE_PAD_HALF_ANGLE / L
    return lo + pad, hi - pad


def _sides(spectrum: TransverseSpectrum, u, L: int, k
           ) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of the momentum equation with both tan poles and
    coupling poles cleared, ``2 J sin k sin(kL/2) (1 + U Sigma_L)`` and
    ``U psi_0(0)^2 cos(kL/2)``, at couplings `u` and momenta `k`
    broadcast together: one :func:`_ring_sums` pass over the momenta of
    `k`, so a (couplings x 1) `u` against a grid `k` sums once.

    Their difference ``G(k)`` is zero exactly at the allowed momenta.
    """
    half = 0.5 * k * L
    psi0 = float(spectrum.origin_amplitudes[0])
    return (2.0 * J * np.sin(k) * np.sin(half)
            * (1.0 + u * _ring_sums(spectrum, k, L)),
            u * psi0 * psi0 * np.cos(half))


def brentq(f, xa: np.ndarray, xb: np.ndarray, xtol: float, rtol: float,
           maxiter: int):
    """``scipy.optimize.brentq`` on many brackets at once: the loop of
    scipy's ``brentq.c``, step for step, with one lane per bracket
    ``[xa[i], xb[i]]``, so each root equals brentq's bit for bit.

    ``f(lanes, x)`` evaluates the lanes indexed by `lanes` at `x` and
    returns ``(f(x), aux)``, two float arrays shaped like `x`.  The
    bracket ends take one call, and each iteration one more over the
    lanes still live.

    Returns each lane's root, `aux` at the root, whether the lane
    converged within `maxiter` iterations (one that did not keeps its
    last iterate), and the number of calls of `f`.

    Raises
    ------
    ValueError
        If ``f(a)`` and ``f(b)`` of a lane have the same sign.
    """
    n = len(xa)
    if not n:
        return xa, xa.copy(), np.ones(0, dtype=bool), 0
    every = np.arange(n)
    fx, ax = f(np.concatenate((every, every)), np.concatenate((xa, xb)))
    calls = 1
    # each point of a lane is one column (x, f(x), aux)
    pre, cur = np.stack((xa, fx[:n], ax[:n])), np.stack((xb, fx[n:], ax[n:]))
    at_a = pre[1] == 0.0
    root, aux = np.where(at_a, pre[0::2], cur[0::2])
    converged = at_a | (cur[1] == 0.0)
    if np.any(~converged & (np.signbit(pre[1]) == np.signbit(cur[1]))):
        raise ValueError("f(a) and f(b) must have different signs")
    live = np.flatnonzero(~converged)
    pre, cur = pre[:, live], cur[:, live]
    blk = np.zeros_like(pre)
    spre = scur = np.zeros(live.size)
    while live.size and calls <= maxiter:
        # a sign change between pre and cur: cur's bracket partner is pre
        new = (pre[1] != 0.0) & (cur[1] != 0.0) \
            & (np.signbit(pre[1]) != np.signbit(cur[1]))
        blk = np.where(new, pre, blk)
        spre = np.where(new, cur[0] - pre[0], spre)
        scur = np.where(new, cur[0] - pre[0], scur)
        # cur becomes the end with the smaller |f|
        swap = np.abs(blk[1]) < np.abs(cur[1])
        pre, cur, blk = (np.where(swap, cur, pre), np.where(swap, blk, cur),
                         np.where(swap, cur, blk))
        (xpre, fpre, _), (xcur, fcur, _), (xblk, fblk, _) = pre, cur, blk

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        stop = (fcur == 0.0) | (np.abs(sbis) < delta)
        root[live[stop]], aux[live[stop]] = xcur[stop], cur[2, stop]
        converged[live[stop]] = True

        # inverse quadratic (or secant) step where it is short enough,
        # else bisection; the unused branch may divide by zero
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre)
                / (dblk * dpre * (fblk - fpre)))
            short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) \
                & (2 * np.abs(stry)
                   < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        step = np.where(np.abs(scur) > delta, scur,
                        np.where(sbis > 0, delta, -delta))

        go = ~stop
        live, blk, spre, scur = live[go], blk[:, go], spre[go], scur[go]
        pre = cur = cur[:, go]
        if live.size:
            x = pre[0] + step[go]
            cur = np.stack((x, *f(live, x)))
            calls += 1
    root[live], aux[live] = cur[0], cur[2]
    return root, aux, converged, calls


@dataclass(frozen=True)
class BranchSweep:
    """One branch's allowed momenta at every coupling of a sweep.

    ``roots[j]`` lists the momenta at the j-th coupling, ``None`` where
    the branch is empty there; `passes` counts the evaluation passes of
    the polish and `polished` the bracketed roots it polished.
    """

    roots: list[list[RingSolution] | None]
    passes: int
    polished: int


def ring_sweep_roots(spectrum: TransverseSpectrum, us: list[float], L: int,
                     branch: int) -> BranchSweep:
    """:func:`ring_branch_roots` at every coupling of `us` at once.

    Each coupling's sign changes of ``G`` on the branch's fixed scan grid
    bracket its roots; every bracket of the sweep is one lane of
    :func:`brentq`, so the whole sweep costs a few array passes.
    The residual of a root divides ``|G|`` by the larger side or
    ``2 J |sin k|``.  An error is raised for the first failing coupling
    in the order of `us`; an empty branch is not an error here.
    ``U = 0`` has the free momentum and never scans.
    """
    lo, hi = _branch_interval(L, branch)
    free_k = 2.0 * math.pi * branch / L
    free = None
    if branch and lo < free_k < hi:
        free = [RingSolution(L=L, u=0.0, branch=branch, k=free_k,
                             energy=-2.0 * J * math.cos(free_k),
                             residual=0.0)]
    roots: list[list[RingSolution] | None] = [
        free if u == 0.0 else None for u in us]
    coupled = [j for j, u in enumerate(us) if u != 0.0]
    if not coupled:
        return BranchSweep(roots, passes=0, polished=0)

    lane_us = np.array([us[j] for j in coupled], dtype=float)
    ks = np.linspace(lo, hi, _SCAN_POINTS)
    # G with one row per coupling; Sigma_L is summed on the grid once
    vals = np.subtract(*_sides(spectrum, lane_us[:, None], L, ks))
    # an exact zero on the grid is a root as it stands: a bracket of width 0
    zero_j, zero_i = np.nonzero(vals == 0.0)
    cut_j, cut_i = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    lane_j = np.concatenate((zero_j, cut_j))
    lane_us = lane_us[lane_j]

    def mismatch(lanes, x):
        """G at each lane's coupling, and its relative residual."""
        lhs, rhs = _sides(spectrum, lane_us[lanes], L, x)
        g = lhs - rhs
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)),
                           2.0 * J * np.abs(np.sin(x)))
        return g, np.abs(g) / scale

    k, res, ok, passes = brentq(
        mismatch, np.concatenate((ks[zero_i], ks[cut_i])),
        np.concatenate((ks[zero_i], ks[cut_i + 1])), _XTOL, _RTOL, _MAXITER)

    found: list[dict[float, float]] = [{} for _ in coupled]
    unconverged = set()
    for j, kj, rj, okj in zip(lane_j.tolist(), k.tolist(), res.tolist(),
                              ok.tolist()):
        found[j][kj] = rj
        if not okj:
            unconverged.add(j)
    for j, at in enumerate(found):
        u = us[coupled[j]]
        if j in unconverged:
            raise NoConvergence(
                f"ring root of branch {branch} at U={u:g}, L={L} not "
                f"converged after {_MAXITER} iterations")
        ordered = sorted(at)
        for r1, r2 in zip(ordered, ordered[1:]):
            if r2 - r1 < _ROOT_SEPARATION:
                raise BranchCollision(
                    f"two roots of branch {branch} within {r2 - r1:.3g} "
                    f"at U={u:g}, L={L}")
        for kj in ordered:
            if at[kj] > _RESIDUAL_TOL:
                raise NoConvergence(f"ring root at k={kj:.12g} has relative "
                                    f"residual {at[kj]:.3g}")
        if ordered:
            roots[coupled[j]] = [
                RingSolution(L=L, u=u, branch=branch, k=kj,
                             energy=-2.0 * J * math.cos(kj), residual=at[kj])
                for kj in ordered]
    return BranchSweep(roots, passes=passes, polished=len(cut_j))


def ring_branch_roots(spectrum: TransverseSpectrum, u: float, L: int,
                      branch: int) -> list[RingSolution]:
    """All allowed momenta of one branch (usually one; two while the
    coupling pole of the momentum equation transits the branch): the
    one-coupling case of :func:`ring_sweep_roots`.

    Each call scans the branch afresh; a sweep over couplings calls
    :func:`ring_sweep_roots` once instead, which scans it once.
    """
    found = ring_sweep_roots(spectrum, [u], L, branch).roots[0]
    if found is None:
        if u == 0.0:
            raise NoRootInBranch(
                f"branch {branch} holds no free momentum in (0, pi) at U=0"
                if branch else "k = 0 is not a scattering momentum")
        lo, hi = _branch_interval(L, branch)
        raise NoRootInBranch(
            f"no allowed momentum in branch {branch} (interval "
            f"({lo:.6g}, {hi:.6g})) at U={u:g}, L={L}")
    return found


def ring_momentum(spectrum: TransverseSpectrum, u: float, L: int,
                  branch: int) -> RingSolution:
    """Lowest allowed momentum of `branch` at coupling `u`.

    Raises
    ------
    NoRootInBranch
        If the branch holds no allowed momentum at this coupling (for
        attractive coupling the lowest branch is ``branch = 1``; branch
        0 only supports repulsive solutions).
    BranchCollision
        If two allowed momenta approach within 1e-8.
    OpenChannel
        If an excited transverse channel is open somewhere on the
        branch (the quasi-1D ansatz fails there).
    """
    return ring_branch_roots(spectrum, u, L, branch)[0]


def ring_cir_crossings(spectrum: TransverseSpectrum, L: int
                       ) -> list[RingCrossing]:
    """Couplings at which an allowed energy crosses a fermionized level.

    The crossing through level ``k_n = (2n+1) pi / L`` happens at
    ``U = -1 / Sigma_L(k_n)``, necessarily negative since
    ``Sigma_L > 0``.  Levels whose momentum opens an excited transverse
    channel are skipped (the ansatz does not describe them).

    Parameters
    ----------
    spectrum : TransverseSpectrum
    L : int
        Ring circumference (sites).
    """
    if L < 4:
        raise ConfigError(f"ring length must be at least 4 sites, got L={L}")
    levels = np.arange((L - 1) // 2 + 1)  # every higher level has k_n > pi
    ks = (2 * levels + 1) * math.pi / L
    below_pi = ks < math.pi
    levels, ks = levels[below_pi], ks[below_pi]
    # the first level that opens a coupled channel ends the list: higher
    # levels sit at higher energy, so theirs are open too
    _, channels = _coupled_channels(spectrum)
    if channels.size:
        energy = _entrance_energies(spectrum, ks)
        opened = np.flatnonzero(~((channels.min() - energy) / J > 2.0))
        if opened.size:
            levels, ks = levels[:opened[0]], ks[:opened[0]]
    sig = _ring_sums(spectrum, ks, L)
    keep = sig > 0.0  # Sigma_L > 0 by construction; guards NaN traps
    levels, ks, us = levels[keep], ks[keep], -1.0 / sig[keep]
    return [RingCrossing(level=int(n), k=float(k), u=float(u))
            for n, k, u in zip(levels, ks, us)]


def asymptotic_momentum(spectrum: TransverseSpectrum, u: float, L: int,
                        branch: int) -> RingSolution:
    """Infinite-system prediction for the branch momentum: the root of
    ``k L + 2 delta_k = 2 pi * branch`` with the open-system phase
    shift ``delta_k``.

    This is the ``L -> infinity`` limit of :func:`ring_momentum`; the
    two agree to the order of the closed-channel ring corrections
    ``alpha^L``.  Used as a consistency oracle for large rings.
    """
    lo, hi = _branch_interval(L, branch)

    def quantization(k: float) -> float:
        delta = effective_u1d(spectrum, u, k=k).delta_k
        return k * L + 2.0 * delta - 2.0 * math.pi * branch

    qa, qb = quantization(lo), quantization(hi)
    if qa * qb > 0.0:
        raise NoRootInBranch(
            f"no quantization root in branch {branch} at U={u:g} "
            f"(phase shift window misses 2 pi * {branch})")

    def lane(_, x):
        q = np.array([quantization(float(k)) for k in x])
        return q, q

    k, q, ok, _ = brentq(lane, np.array([lo]), np.array([hi]), _XTOL, _RTOL,
                         _MAXITER)
    if not ok[0]:
        raise NoConvergence(
            f"quantization root of branch {branch} at U={u:g}, L={L} not "
            f"converged after {_MAXITER} iterations")
    k = float(k[0])
    return RingSolution(L=L, u=u, branch=branch, k=k,
                        energy=-2.0 * J * math.cos(k),
                        residual=abs(float(q[0])))
