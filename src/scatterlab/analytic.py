"""Closed-form reference results for SSH-type scattering centers.

Everything here is a pure function of the model parameters, returned as
plain values: the edge-state amplitudes (an array), the resonant
transmission/reflection amplitudes of the topological zero mode (a pair),
channel probabilities for an incident packet, the visibility and
reflection laws as functions of q = v/w (floats), and the approximate
real spectrum of the gain/loss chain in the strongly dimerized regime (a
tuple of ``NHLevel``) with each level's transmission profile (an array).
These serve as test oracles and as theory overlays in CLI output.

Each law owns its domain: outside it the function raises
``PhysicsError``, and callers read that as "no theory here".  The ratio
q = 1 marks the localization transition; formulas that lose meaning there
raise instead of returning a limit value.  The zero-mode laws (channel
probabilities, visibility, reflection) are also stated at one operating
point, a probe at E = 0 by the band centre's incident wave, k =
``BAND_CENTRE_K`` for lead hopping J < 0 and -``BAND_CENTRE_K`` for
J > 0; ``zero_mode_probe`` is the one check of it, and raises elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError
from .lattice import BAND_CENTRE_K, incident_wave_vector


def edge_state_amplitudes(q: float, cells: int) -> np.ndarray:
    """In-gap zero-mode profile for hopping ratio q = v/w < 1, on the odd
    sublattice: entry j-1 lives on center site 2j-1, with amplitude
    (1-q^2)^(1/2) (-q)^(j-1).

    The prefactor normalizes the infinite chain; for finite ``cells`` the
    summed weight is 1 - q^(2*cells).
    """
    if not 0 <= q < 1:
        raise PhysicsError(f"edge state requires 0 <= q < 1, got q={q}")
    if cells < 1:
        raise PhysicsError("cells must be >= 1")
    return np.sqrt(1.0 - q * q) * (-q) ** np.arange(cells)


def zero_mode_probe(energy: float, k: float, J: float) -> None:
    """Check that a probe at incident ``energy`` and wave vector ``k`` on a
    lead of hopping ``J`` sits on the zero-mode laws' operating point:
    E = 0, and k the band centre's incident wave on that lead,
    ``incident_wave_vector(J, BAND_CENTRE_K)`` (pi/2 for J < 0, -pi/2 for
    J > 0), each to within 1e-9.  Raises ``PhysicsError`` otherwise; off
    that point the laws below do not describe the probe."""
    if not (abs(energy) < 1e-9 and abs(k - incident_wave_vector(J, BAND_CENTRE_K)) < 1e-9):
        raise PhysicsError(
            "zero-mode laws hold at E = 0, k = pi/2 (-pi/2 for J > 0); "
            f"probe at E={energy:.6g}, k={k:.6g}, J={J:.6g}"
        )


def zero_mode_amplitudes(q: float) -> tuple[float, float]:
    """Resonant (t1, r) of the zero mode: t1 = 2(1-q^2)/(2-q^2),
    r = -q^2/(2-q^2).  Satisfies t1 - r = 1 identically."""
    if not np.isfinite(q):
        raise PhysicsError(f"amplitudes need a finite q, got q={q}")
    # no double squares to exactly 2.0, so the denominator is never 0
    denom = 2.0 - q * q
    return 2.0 * (1.0 - q * q) / denom, -q * q / denom


def predicted_probabilities(q: float, l: int) -> float:
    """Channel probability p_l for an incident packet resonant with the
    zero mode.

    Channel 0 is the reflected weight, ``reflection_theory(q)``; odd
    output channels form the geometric series |t1|^2 q^(l-1); even output
    channels are dark.  For q > 1 there is no in-gap mode and everything
    reflects.
    """
    if not q > 0:  # NaN too
        raise PhysicsError(f"q must be positive, got {q}")
    if q == 1:
        raise PhysicsError("q = 1 is the transition point; probabilities undefined")
    if l < 0:
        raise PhysicsError(f"channel index must be >= 0, got {l}")
    if l == 0:
        return reflection_theory(q)
    if q > 1 or l % 2 == 0:
        return 0.0
    t1 = zero_mode_amplitudes(q)[0]
    return t1 * t1 * q ** (l - 1)


def visibility_theory(q: float) -> float:
    """Odd-neighbor visibility (1-q^2)/(1+q^2), defined for 0 < q < 1."""
    if not 0 < q < 1:
        raise PhysicsError(f"visibility undefined outside 0 < q < 1, got q={q}")
    return (1.0 - q * q) / (1.0 + q * q)


def reflection_theory(q: float) -> float:
    """Resonant reflection law: q^4/(2-q^2)^2 below the transition, total
    reflection above it."""
    if not q > 0:  # NaN too
        raise PhysicsError(f"q must be positive, got {q}")
    if q == 1:
        raise PhysicsError("q = 1 is the transition point; reflection law undefined")
    if q > 1:
        return 1.0
    return q ** 4 / (2.0 - q * q) ** 2


@dataclass(frozen=True)
class NHLevel:
    """One real level of the gain/loss chain: standing-wave momentum
    kappa and its real energy."""

    kappa: float
    real_energy: float


def nh_spectrum(v: float, w: float, gamma: float, cells: int) -> tuple[NHLevel, ...]:
    """Approximate positive-branch real spectrum of the staggered gain/loss
    chain in the strongly dimerized regime v >> w.

    Level n in [0, cells-1] carries kappa = (n+1) pi / (cells + 1) and
    energy sqrt((v - w cos kappa)^2 - gamma^2).  Only levels with a real
    energy are listed: one with a negative radicand (broken reality) has
    no transmission peak to show.  A chain with v <= w is outside the
    regime and raises ``PhysicsError``, as does one whose (v + w)^2 +
    gamma^2 overflows the float range.
    """
    if not all(0 < x < np.inf for x in (v, w, gamma)):
        raise PhysicsError(f"nh_spectrum requires finite v, w, gamma > 0, got {v}, {w}, {gamma}")
    if v <= w:
        raise PhysicsError(f"nh_spectrum is the closed form for v >> w, got v={v} <= w={w}")
    if cells < 1:
        raise PhysicsError("cells must be >= 1")
    # |v - w cos kappa| <= v + w: a finite bound keeps every radicand finite
    bound, g = float(v) + float(w), float(gamma)
    if not math.isfinite(bound * bound + g * g):
        raise PhysicsError(
            f"nh_spectrum overflows the float range at v={v}, w={w}, gamma={gamma}"
        )
    levels = []
    for n in range(cells):
        kappa = (n + 1) * np.pi / (cells + 1)
        radicand = (v - w * np.cos(kappa)) ** 2 - gamma * gamma
        if radicand >= 0:
            levels.append(NHLevel(kappa=kappa, real_energy=float(np.sqrt(radicand))))
    return tuple(levels)


def nh_transmission_profile(level: NHLevel, cells: int) -> np.ndarray:
    """Per-cell transmission pattern of a real level, normalized to unit
    maximum.

    Entry m-1 is proportional to sin^2(kappa m); the two leads of cell m
    (channels 2m-1 and 2m) share this value.
    """
    if cells < 1:
        raise PhysicsError("cells must be >= 1")
    m = np.arange(1, cells + 1)
    prof = np.sin(level.kappa * m) ** 2
    peak = prof.max()
    if peak == 0:
        raise PhysicsError("degenerate profile: sin(kappa m) vanishes on every cell")
    return prof / peak
