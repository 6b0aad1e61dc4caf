"""Exception taxonomy shared by every solver module.

Each error class carries the CLI exit code its family maps to:

* 2 -- invalid or inconsistent configuration,
* 3 -- a solver did not converge or a requested accuracy is unattainable,
* 4 -- physical-regime violation (the quasi-1D description itself breaks,
  or the requested point sits on a pole).

:func:`require_finite` refuses NaN and infinite arguments with a
:class:`ConfigError`, so that a library call fails as the CLI does
instead of returning NaN.
"""

import math

import numpy as np

EXIT_CONFIG = 2
EXIT_NOCONVERGENCE = 3
EXIT_REGIME = 4


class Q1DError(Exception):
    """Base class for all solver errors."""

    exit_code = EXIT_NOCONVERGENCE


# ---------------------------------------------------------------- config (2)

class ConfigError(Q1DError):
    """Invalid or inconsistent run configuration."""

    exit_code = EXIT_CONFIG


def require_finite(name: str, value) -> None:
    """Raise :class:`ConfigError` naming the argument `name` if `value`,
    a number or an array of numbers, holds a NaN or an infinity."""
    if isinstance(value, (int, float)):  # per trap or coupling: no numpy
        if math.isfinite(value):
            return
        bad = value
    else:
        finite = np.isfinite(value)
        if finite.all():
            return
        bad = np.extract(~finite, value)[0]
    raise ConfigError(f"{name} must be finite, got {bad}")


class UnknownFigure(ConfigError):
    """Requested figure recipe does not exist."""


class PoleInWindow(ConfigError):
    """A known resonance sits inside the requested fit window."""


# --------------------------------------------------- non-convergence (3)

class UnorderedSpectrum(Q1DError):
    """The merged transverse energies of a symmetric trap decrease.

    Exact even/odd interlacing plus correctly rounded energies make the
    merged list nondecreasing; a decrease means the sector eigensolve
    missed that accuracy.
    """


class EdgeLeak(Q1DError):
    """A retained transverse state has edge weight above tolerance.

    The transverse grid half-width is too small for the requested number
    of bound states.
    """


class QuadratureFail(Q1DError):
    """Quadrature error estimate exceeds its bound."""


class NoRootInBranch(Q1DError):
    """The ring momentum equation has no root in the requested branch."""


class BranchCollision(Q1DError):
    """Two ring momentum roots coincide within tolerance."""


class NoConvergence(Q1DError):
    """Iterative solver exceeded its iteration budget."""


class Diverging(Q1DError):
    """A Born series was asked for at ``|U| max mu >= 1``, on or beyond
    its radius of convergence."""


class ContaminatedChannel(Q1DError):
    """No eigenstate passed the entrance-channel purity filters."""


# --------------------------------------------------------- regime (4)

class OpenChannel(Q1DError):
    """A channel required to be closed is open at the target energy."""

    exit_code = EXIT_REGIME


class AtResonance(Q1DError):
    """The requested coupling sits on a confinement-induced resonance;
    the effective coupling diverges there and is reported as a pole."""

    exit_code = EXIT_REGIME


class SingularSystem(Q1DError):
    """The two-body linear system is singular (coupling at a resonance)."""

    exit_code = EXIT_REGIME


class SignConventionViolation(Q1DError):
    """A closed-channel Green's-function denominator came out non-negative."""

    exit_code = EXIT_REGIME
