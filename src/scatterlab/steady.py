"""Exact plane-wave scattering with semi-infinite leads eliminated.

A solve's k in (0, pi) is the magnitude of the incident wave vector
q = ``lattice.incident_wave_vector(J, k)``: k for J < 0, -k for J > 0.
The other sign would solve the time-reversed problem, which for a
gain/loss centre swaps gain and loss.  Under the outgoing-wave ansatz, a
semi-infinite lead attached to a center site contributes the boundary
term J e^{iq} at that site.  With the input lead at a_0 and output lead
l at a_l, the sites of ``lattice.attachment_sites``, continuity turns
either geometry into one N x N system over the center amplitudes:

    [H_c - E + J e^{iq} sum_l P_{a_l}] psi = 2 i J sin(q) e_{a_0}

with E = 2 J cos q + mu, r = psi_{a_0} - 1 and t_l = psi_{a_l}.  A dense
LU solves it (centers have a few hundred sites at most), adding each
site's lead count times J e^{iq} to its diagonal entry in one addition.
A singular system still determines psi at the attachment sites when no
null direction reaches them (a level dark from every lead); otherwise it
raises.  Multichannel, (1, 1, 2, ..., N), reads every site, so there a
singular system always raises.

The two-lead geometry, (alpha, alpha), needs only psi_alpha, and every
built-in centre is a chain, so there

    t = 2 i J sin q / (h_aa - E + 2 J e^{iq} - S_left(E) - S_right(E)),

where each side's self-energy S is a continued fraction over its sites
(the recursion method of Haydock, Heine & Kelly 1972): O(N) scalar work
per probe energy, from a ``center_chain`` built once per scan.  A chain
whose entries are all real (every SSH centre) holds Python floats and
runs the recursion in float arithmetic, bit for bit what complex
arithmetic gives on the same entries.  A gain/loss chain holds numpy's
extended complex scalars (``np.clongdouble``) and runs the probe energy,
the recursion and r = t - 1 in that precision.  Near a level the
continued fraction cancels terms the size of the centre's entries down
to one the size of |r|: on fig 7f's centre (bonds 40, gain/loss 10, lead
J = 1) double precision lost up to 3e-12 of |r|^2 against a 40-digit
solve of the same inputs, and the 64-bit significand of x86's long
double keeps it below 3e-14, for about 3 us more per probe.  Where
numpy's long double is plain double (MSVC builds) the gain/loss chain
is no more accurate than a complex one.
The lead's terms 2J cos q, 2J e^{iq} and 2iJ sin q are computed once per
(J, k), for both geometries, so a probe on a real chain costs plain
Python arithmetic only.  A classified chain goes straight to the
recursion; only an unclassified centre is classified per call.  An empty
side (alpha at a chain end, as on every fig 7 panel) costs nothing: its
self-energy is 0, and x - 0.0 is x for every x, -0 included.  Sites past
a zero bond are cut off the chain, so a level dark from alpha there
drops out by construction.  A centre with any entry off the tridiagonal
band falls back to a dense LU, as does one whose bond products overflow.
A scan runs at the lead's band centre ``lattice.BAND_CENTRE_K``, where
the probe energy equals mu.  All functions are pure; scans are
deterministic.

A scan resonance is a zero of the complex reflection amplitude r(mu), on
a centre level.  A secant on r inside the candidate's grid bracket finds
it, taking the real part of each step, so a gain/loss centre's complex r
needs no other rule.  On fig 7 it lands within 2e-15 max(1, |lambda|)
of a 40-digit eigensolver's levels lambda, in 5 to 22 solves each.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, PhysicsError
from .lattice import BAND_CENTRE_K, attachment_sites, group_velocity, incident_wave_vector

# A refined reflection minimum must fall below this to count as a resonance.
RESONANCE_R2 = 1e-8
# Grid candidates are local minima of |r|^2 below this threshold.
CANDIDATE_R2 = 1e-2
# |<alpha|phi>|^2 below this marks an eigenstate invisible to the scan.
DARK_OVERLAP2 = 1e-12
# Step cap of the secant that refines a scan candidate (3-20 steps on fig 7).
_SECANT_MAXITER = 60
# A scan grid may hold at most this many points (fig 7 uses 20,001).
_MAX_SCAN_POINTS = 10_000_000


@dataclass(frozen=True)
class ScatteringSolution:
    """Reflection and transmission amplitudes at fixed (k, mu, J).

    ``reflectance`` and ``transmittance`` square Python's ``abs`` of each
    amplitude: against a 40-digit |t|^2 it was the closer of the two where
    it and numpy's array ``np.abs`` differ, 5,361 times in 5,890.
    ``flux_error`` is |r|^2 + sum|t|^2 - 1 of those probabilities,
    meaningful for Hermitian centers where the scattering is unitary.
    ``detuning`` is the distance min_n |E - lambda_n| from the probe
    energy to the nearest center eigenvalue (complex for gain/loss
    centers); ``width`` is 2|J| sin k, an upper bound on every level's
    Lorentzian half-width at half maximum in this geometry.  ``detuning >
    width`` therefore means the probe is off resonance.  ``warnings``
    carries solver diagnostics (e.g. two levels nearest the probe energy
    split by less than ``width``).
    """

    energy: float
    r: complex
    t: np.ndarray
    detuning: float
    width: float
    warnings: tuple[str, ...] = ()

    @property
    def reflectance(self) -> float:
        return float(abs(self.r) ** 2)

    @property
    def transmittance(self) -> np.ndarray:
        return np.array([abs(amp) ** 2 for amp in self.t], dtype=float)

    @property
    def flux_error(self) -> float:
        return float(self.reflectance + self.transmittance.sum() - 1.0)


@dataclass(frozen=True)
class ResonanceScan:
    """Sampled |r|^2(mu) curve with refined resonance locations.

    ``resonances`` hold the refined mu* with |r(mu*)|^2 < 1e-8 and
    ``resonance_reflectance`` their |r|^2: what the scan measured.  The
    levels a scan cannot see (weight below ``DARK_OVERLAP2`` at the
    attachment site) come from ``resonant_eigenvalues``.
    """

    mu_grid: np.ndarray
    reflectance: np.ndarray
    resonances: tuple[float, ...]
    resonance_reflectance: tuple[float, ...]


def _center_block(
    center: np.ndarray, alpha: int | None = None, finite: bool = False
) -> np.ndarray:
    m = np.asarray(center, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise PhysicsError(f"center block must be square and non-empty, got shape {m.shape}")
    if alpha is not None and not 1 <= alpha <= m.shape[0]:
        raise PhysicsError(f"attachment site {alpha} outside [1, {m.shape[0]}]")
    if finite and not np.isfinite(m).all():  # for eig and the dense LU
        raise PhysicsError("center block entries must be finite numbers")
    return m


def _degeneracy_warning(vals: np.ndarray, energy: float, width: float) -> tuple[str, ...]:
    """Warn when the probe energy is on resonance (within the width
    2|J| sin k of the nearest level in ``vals``) and the two levels nearest
    it sit closer than that width, which bounds every level's half-width:
    the probe then images the pair, not one level (e.g. the zero-mode pair
    near the localization transition)."""
    if len(vals) < 2:
        return ()
    order = np.argsort(np.abs(vals - energy))
    a, b = vals[order[0]], vals[order[1]]
    with np.errstate(over="ignore"):  # an infinite gap splits no pair
        gap = abs(a - b)
    if abs(a - energy) <= width and gap < width:
        return (
            f"levels {a:.6g} and {b:.6g} nearest E={energy:.6g} are split by "
            f"{gap:.3e} < resonance width 2|J| sin k = {width:.3e}; "
            "resonance may be a degenerate pair",
        )
    return ()


def solve_multichannel(
    center: np.ndarray,
    J: float,
    mu: float,
    k: float,
) -> ScatteringSolution:
    """Solve the multichannel geometry, ``attachment_sites(N, None)``, the
    network the wave-packet engine runs for ``NetworkSpec(alpha=None)``.

    Continuity t_1 - r = 1 holds by construction; for Hermitian centers
    the flux |r|^2 + sum|t|^2 = 1 is a property of the solution and is
    reported via ``flux_error``.  A non-finite centre entry or mu, or a J
    whose lead terms overflow, raises ``PhysicsError``.
    """
    band, lead, drive = _lead_terms(J, k)
    if not math.isfinite(mu):
        raise PhysicsError(f"lead potential mu={mu} must be finite")
    hc = _center_block(center, finite=True)
    energy = band + mu
    psi = _attached_solve(hc, attachment_sites(hc.shape[0], None), energy, lead, drive)
    if psi is None:
        raise NumericalError(f"singular scattering system at mu={mu}, k={k}")
    r, t = psi[0] - 1.0, psi[1:]
    vals = np.linalg.eigvals(hc)
    width = float(group_velocity(J, k))
    return ScatteringSolution(
        energy=energy,
        r=r,
        t=t,
        detuning=float(np.min(np.abs(vals - energy))),
        width=width,
        warnings=_degeneracy_warning(vals, energy, width),
    )


class CenterChain(NamedTuple):
    """A tridiagonal centre seen from its attachment site ``alpha``.

    ``onsite`` is h[alpha, alpha].  ``left`` and ``right`` are the two sides
    of alpha as ``(h[i, i], h[i, i'] * h[i', i])`` pairs, where i' is the
    neighbour of site i on the way to alpha, listed from the outer end
    inward.  Each side ends just outside its innermost zero bond, so every
    listed bond product is nonzero.

    The entries are Python floats when every listed on-site entry and
    bond product has imaginary part exactly 0 (a real centre such as every
    SSH chain), and ``np.clongdouble`` otherwise, bond products taken in
    that precision: a gain/loss chain, or a complex hopping b, whose numpy
    product b * conj(b) may keep a rounding-level imaginary part.  Sites
    cut off by a zero bond do not count, so a centre solves bit for bit as
    its reduced chain.  A chain built by hand with Python complex entries
    runs the float recursion: with exact-zero imaginary parts, CPython's
    complex ``-`` and ``/`` reduce to the float operations, so a real
    chain gives bit for bit the amplitudes of its complex copy.
    """

    alpha: int
    onsite: float | complex | np.clongdouble
    left: tuple[tuple[float | complex | np.clongdouble, ...], ...]
    right: tuple[tuple[float | complex | np.clongdouble, ...], ...]


def center_chain(center: np.ndarray, alpha: int) -> CenterChain | None:
    """The chain form of ``center`` seen from site ``alpha`` (1-based), or
    None if an entry lies off the tridiagonal band, or an on-site entry or
    a bond product is not a finite number (the recursion would give NaN
    where the dense LU still solves).

    Sites beyond the innermost zero bond on either side are dropped: no
    path of nonzero bond products joins them to alpha, so they are dark
    from it and cannot enter r or t.
    """
    hc = _center_block(center, alpha)
    n = hc.shape[0]
    if np.count_nonzero(np.triu(hc, 2)) or np.count_nonzero(np.tril(hc, -2)):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        bonds = hc.diagonal(1) * hc.diagonal(-1)  # bonds[i] joins sites i and i + 1
    if not (np.isfinite(bonds).all() and np.isfinite(hc.diagonal()).all()):
        return None
    a = alpha - 1
    zero = np.flatnonzero(bonds == 0).tolist()
    lo = max((z + 1 for z in zero if z < a), default=0)
    hi = min((z for z in zero if z >= a), default=n - 1)
    onsite, bonds = hc.diagonal()[lo : hi + 1], bonds[lo:hi]
    if onsite.imag.any() or bonds.imag.any():
        onsite = onsite.astype(np.clongdouble)
        bonds = hc.diagonal(1)[lo:hi].astype(np.clongdouble) * hc.diagonal(-1)[lo:hi]
    else:
        onsite, bonds = onsite.real, bonds.real
    onsite, bonds, a = onsite.tolist(), bonds.tolist(), a - lo
    left = tuple(zip(onsite[:a], bonds[:a]))
    right = tuple(zip(onsite[a + 1 :], bonds[a:]))[::-1]
    return CenterChain(alpha, onsite[a], left, right)


class _DenseCenter(NamedTuple):
    """A centre off the tridiagonal band, solved by a dense LU."""

    matrix: np.ndarray


def _two_lead_system(center, alpha: int) -> CenterChain | _DenseCenter:
    """``center`` classified for the two-lead solve at site ``alpha``: its
    ``center_chain``, or else its dense block.  Classified input passes."""
    if isinstance(center, (CenterChain, _DenseCenter)):
        return center
    hc = _center_block(center, finite=True)
    chain = center_chain(hc, alpha)
    return _DenseCenter(hc) if chain is None else chain


def _self_energy(
    side: tuple[tuple[float | complex, float | complex], ...], energy: float
) -> float | complex:
    """Self-energy of one side at ``energy``: the continued fraction
    s <- bc / (a - E - s) run from the outer end inward, in float
    arithmetic on a real chain and complex on a Python complex one.  A
    zero denominator (+0 or -0, either type) gives s = inf, whose limit
    makes the next term -0."""
    s: float | complex = 0.0
    for a, bc in side:
        try:
            s = bc / (a - energy - s)
        except ZeroDivisionError:
            s = math.inf
    return s


def _extended_self_energy(
    side: tuple[tuple[np.clongdouble, np.clongdouble], ...], energy: np.clongdouble
) -> np.clongdouble | float:
    """``_self_energy`` of a gain/loss side in ``np.clongdouble``.
    numpy's scalar division by zero warns and returns NaN parts instead of
    raising, so a zero denominator is tested for: it gives s = inf, and
    the next term is -0 as on the float path."""
    s: np.clongdouble | float = 0.0
    for a, bc in side:
        d = a - energy - s
        s = bc / d if d else math.inf
    return s


def two_lead_solve(
    center: np.ndarray | CenterChain,
    alpha: int,
    J: float,
    mu: float,
    k: float,
) -> tuple[complex, complex]:
    """Solve the two-lead geometry: input and output both attached at
    center site ``alpha``.  Returns ``(r, t)``.

    ``k`` is the magnitude of the incident wave vector q, which is -k for
    J > 0 (see the module notes, which also give the chain recursion).
    ``center`` is the dense matrix, its ``center_chain(center, alpha)`` or
    ``mu_scan``'s classification of it.  A ``CenterChain`` goes straight
    to the recursion, where an empty side costs nothing; only other input
    is classified, on every call.  A tridiagonal centre is solved by the
    chain recursion, any other by the dense solve, where a probe energy
    exactly on a level dark from alpha drops that level.

    At the band centre k = ``BAND_CENTRE_K`` (pi/2), where E = mu, with mu
    equal to a real center eigenvalue whose wavefunction does not vanish
    at alpha, the transmission is perfect (r = 0) for any coupling
    strength J.  A singularity that couples to alpha raises
    ``NumericalError``; a non-finite centre entry or mu, or a J whose
    lead terms overflow, raises ``PhysicsError``.
    """
    band, lead, drive = _lead_terms(J, k)
    if not math.isfinite(mu):
        raise PhysicsError(f"lead potential mu={mu} must be finite")
    chain = center
    if not isinstance(chain, CenterChain):
        chain = _two_lead_system(center, alpha)
        if isinstance(chain, _DenseCenter):
            sites = attachment_sites(chain.matrix.shape[0], alpha)
            psi = _attached_solve(chain.matrix, sites, band + float(mu), lead, drive)
            if psi is None:
                raise NumericalError(f"singular two-lead system at mu={mu}, k={k}")
            return complex(psi[0] - 1.0), complex(psi[0])
    if alpha != chain.alpha:
        raise PhysicsError(f"attachment site {alpha} differs from the chain's {chain.alpha}")
    extended = isinstance(chain.onsite, np.clongdouble)
    if extended:
        band, lead, drive = _extended_lead_terms(J, k)
    # in extended precision E keeps 2J cos q, 1e-16 at the band centre
    energy = band + float(mu)
    denom = chain.onsite - energy + lead
    # an empty side's self-energy is 0, and x - 0.0 is x: skipping it is exact
    self_energy = _extended_self_energy if extended else _self_energy
    if chain.left:
        denom -= self_energy(chain.left, energy)
    if chain.right:
        denom -= self_energy(chain.right, energy)
    if not denom:
        raise NumericalError(f"singular two-lead system at mu={mu}, k={k}")
    t = drive / denom
    # the float path's t is already a Python complex
    return (complex(t - 1.0), complex(t)) if extended else (t - 1.0, t)


@lru_cache(maxsize=64)
def _lead_terms(J: float, k: float) -> tuple[float, complex, complex]:
    """The lead's terms at (J, k), as Python numbers, for the incident
    wave vector q = ``incident_wave_vector(J, k)`` of magnitude k: the
    band offset 2J cos q of E = 2J cos q + mu (``dispersion`` less its
    mu), the two-lead boundary term 2J e^{iq} (twice one lead's) and the
    drive 2iJ sin q.  Memoised, so a scan pays the numpy calls once per
    (J, k); an invalid J or k raises on every call, as does a J whose 2J
    is not a finite float, which would make the terms infinite or NaN."""
    if not 0 < k < np.pi:
        raise PhysicsError(
            f"wave vector k={k} outside (0, pi): the incident wave must travel "
            "toward the center"
        )
    if not math.isfinite(2.0 * float(J)):
        raise PhysicsError(f"lead hopping J={J} must be finite, with 2J within the float range")
    q = incident_wave_vector(J, k)
    return (
        float(2.0 * J * np.cos(q)),
        complex(2.0 * J * np.exp(1j * q)),
        complex(2j * J * np.sin(q)),
    )


@lru_cache(maxsize=64)
def _extended_lead_terms(J: float, k: float) -> tuple[np.clongdouble, ...]:
    """``_lead_terms(J, k)`` as ``np.clongdouble``, for a gain/loss chain.
    Memoised: building a numpy scalar costs as much as a probe's
    arithmetic."""
    return tuple(map(np.clongdouble, _lead_terms(J, k)))


def _attached_solve(
    hc: np.ndarray, sites: tuple[int, ...], energy: float, lead: complex, drive: complex
) -> np.ndarray | None:
    """psi at ``sites`` of the module's system, by a dense LU or, if it is
    singular, ``_dark_level_amplitude``.  ``lead`` is 2J e^{iq}: a site
    with c leads gets c * (lead / 2) in one addition, ``lead`` itself for
    two-lead, and no other entry is touched."""
    n = hc.shape[0]
    a = hc.copy()
    a.ravel()[:: n + 1] -= energy
    attached, count = np.unique(sites, return_counts=True)
    a[attached - 1, attached - 1] += count * (0.5 * lead)
    rhs = np.zeros(n, dtype=complex)
    rhs[sites[0] - 1] = drive
    try:
        return np.linalg.solve(a, rhs)[np.subtract(sites, 1)]
    except np.linalg.LinAlgError:
        return _dark_level_amplitude(a, rhs, sites)


def _dark_level_amplitude(
    a: np.ndarray, rhs: np.ndarray, sites: tuple[int, ...]
) -> np.ndarray | None:
    """psi at ``sites`` of the singular system a psi = rhs, driven at
    ``sites[0]``, or None if it is not determined there.

    The right-hand side lies in the range of ``a`` exactly when every left
    null vector vanishes at the driven site, and psi at ``sites`` is unique
    exactly when every right null vector vanishes on all of them
    ("vanishes" meaning weight below DARK_OVERLAP2, as for dark states).
    The pseudo-inverse then gives it.
    """
    u, s, vh = np.linalg.svd(a)
    null = s <= s[0] * a.shape[0] * np.finfo(float).eps
    if np.sum(np.abs(u[sites[0] - 1, null]) ** 2) >= DARK_OVERLAP2:
        return None
    if np.sum(np.abs(vh[null][:, np.unique(sites) - 1]) ** 2) >= DARK_OVERLAP2:
        return None
    keep = ~null
    coeffs = (u[:, keep].conj().T @ rhs) / s[keep]
    return np.array([vh[keep, site - 1] @ coeffs for site in sites])


def _secant_zero(
    f: Callable[[float], complex], xs: Sequence[float], fs: Sequence[float]
) -> tuple[float, complex] | None:
    """Zero ``(x, f(x))`` of the complex ``f`` by a secant inside the
    bracket ``xs = (xa, xb, xc)``, xa < xb < xc, given ``fs``, the values
    of |f|^2 there, or None if a step leaves the bracket.

    The secant starts from xb and from whichever end has the smaller
    |f|^2 (xa on a tie): started from both ends, it lost one of fig 7b's
    edge pair, two levels 5.7e-6 apart with |r|^2 near 1 at the grid point
    between them.  It steps x <- x - Re[f dx / df] and stops when f is
    exactly 0, when two successive f are equal, when a step is below 2 ulp
    of x, or after ``_SECANT_MAXITER`` steps.
    """
    xa, xb, xc = xs
    x0, x1 = (xc if fs[2] < fs[0] else xa), xb
    f0, f1 = f(x0), f(x1)
    for _ in range(_SECANT_MAXITER):
        if not f1 or f1 == f0:
            break
        step = (f1 * (x1 - x0) / (f1 - f0)).real
        x0, f0 = x1, f1
        x1 -= step
        if not xa <= x1 <= xc:
            return None
        f1 = f(x1)
        if abs(step) < 2.0 * math.ulp(x1):
            break
    return x1, f1


def mu_scan(
    center: np.ndarray,
    alpha: int,
    J: float,
    mu_range: tuple[float, float],
    resolution: float,
) -> ResonanceScan:
    """Scan the lead potential mu at the band centre k = ``BAND_CENTRE_K``,
    record |r|^2, and refine reflection zeros.

    At the band centre the probe energy is E = mu, so each reflection zero
    sits on a center eigenvalue; at any other k it sits 2J cos k away.

    Each candidate, a local minimum of the grid's |r|^2 below 1e-2, is
    refined as a zero of r by a secant inside the bracket of its two grid
    neighbours (``_secant_zero``).  Only zeros reaching |r|^2 < 1e-8 are
    reported as resonances.  The scan does not diagonalise the centre:
    its caller reads the levels, dark ones included, from
    ``resonant_eigenvalues``.

    The centre is classified once, into its ``center_chain`` or, off the
    tridiagonal band, a dense block, and every grid point and secant step
    is one ``two_lead_solve`` call on it at ``BAND_CENTRE_K``, looked up
    through this module's global: a chain goes straight to the recursion,
    with no classification per call; a dense block to the dense solve,
    whose singular-system rule a grid point exactly on a dark level
    follows.  The grid pass calls ``two_lead_solve`` directly, the secant
    through a one-line wrapper that returns r.  The grid is mu_min + n
    resolution for each whole n with n resolution <= mu_max - mu_min,
    where a width of s steps that falls short of a whole count by at most
    1e-9 max(1, s) steps, well above the rounding of s at any grid size up
    to the cap, counts as that count; it is walked as Python floats
    straight into the |r|^2 array.  A grid of more than 10,000,000 points,
    or a lead whose band edge 2|J| + max(|mu_min|, |mu_max|) is not
    finite, raises ``PhysicsError`` before the grid is allocated; a grid
    whose consecutive points are not strictly increasing in floating
    point (a step below the float spacing of mu) raises it before any
    solve.
    """
    mu_lo, mu_hi = mu_range
    if not (np.isfinite(resolution) and resolution > 0):
        raise PhysicsError(f"scan resolution must be positive and finite, got {resolution}")
    if not (np.isfinite(mu_lo) and np.isfinite(mu_hi)):
        raise PhysicsError(f"scan range [{mu_lo}, {mu_hi}] must be finite")
    if mu_hi <= mu_lo:
        raise PhysicsError(f"empty scan range [{mu_lo}, {mu_hi}]")
    # the band spans mu +- 2|J| at every mu of the window, as for LeadSpec
    if not math.isfinite(2.0 * abs(float(J)) + max(abs(float(mu_lo)), abs(float(mu_hi)))):
        raise PhysicsError(
            f"scan lead band edge 2|J| + max|mu| is not finite for J={J}, "
            f"mu in [{mu_lo}, {mu_hi}]"
        )
    steps = (mu_hi - mu_lo) / resolution
    n_steps = np.floor(steps + 1e-9 * max(1.0, steps))
    if not n_steps < _MAX_SCAN_POINTS:
        raise PhysicsError(
            f"scan of [{mu_lo}, {mu_hi}] at step {resolution} needs {n_steps + 1:.3g} "
            f"grid points, more than the cap of {_MAX_SCAN_POINTS:,}"
        )
    system = _two_lead_system(center, alpha)
    n = int(n_steps) + 1
    grid = mu_lo + resolution * np.arange(n)
    if not np.all(grid[1:] > grid[:-1]):
        raise PhysicsError(
            f"scan of [{mu_lo}, {mu_hi}] at step {resolution} does not advance: "
            "consecutive grid points coincide in floating point"
        )

    def reflection(mu: float) -> complex:
        return two_lead_solve(system, alpha, J, mu, BAND_CENTRE_K)[0]

    curve = np.fromiter(
        (abs(two_lead_solve(system, alpha, J, mu, BAND_CENTRE_K)[0]) ** 2 for mu in grid.tolist()),
        dtype=float,
        count=n,
    )

    # candidates: local minima (strict on the left) below CANDIDATE_R2
    mid = curve[1:-1]
    candidate = (mid < curve[:-2]) & (mid <= curve[2:]) & (mid < CANDIDATE_R2)
    resonances: list[float] = []
    res_r2: list[float] = []
    for i in (np.flatnonzero(candidate) + 1).tolist():
        zero = _secant_zero(reflection, grid[i - 1 : i + 2].tolist(), curve[i - 1 : i + 2])
        if zero and abs(zero[1]) ** 2 < RESONANCE_R2:
            resonances.append(zero[0])
            res_r2.append(abs(zero[1]) ** 2)

    return ResonanceScan(
        mu_grid=grid,
        reflectance=curve,
        resonances=tuple(resonances),
        resonance_reflectance=tuple(res_r2),
    )


def eigenfunction_from_transmissions(sol: ScatteringSolution) -> np.ndarray:
    """Normalize the transmission vector for direct comparison with a
    center eigenvector.

    The vector is scaled to unit Euclidean norm and the global phase is
    fixed by rotating the largest-magnitude entry to the positive real
    axis.

    The transmissions image a center eigenstate only on resonance.  Every
    level's half-width at half maximum is at most ``sol.width`` = 2|J| sin k,
    so a probe energy farther than that from every center eigenvalue
    (``sol.detuning > sol.width``) is off resonance and raises.  The test
    is independent of the overall transmission, which off resonance scales
    as J^2.
    """
    if sol.detuning > sol.width:
        raise PhysicsError(
            f"probe energy {sol.energy:.6g} is {sol.detuning:.3e} from the nearest "
            f"center level, beyond the resonance width 2|J| sin k = {sol.width:.3e}; "
            "off-resonance, no eigenfunction to extract"
        )
    vec = sol.t / np.linalg.norm(sol.t)
    lead = vec[np.argmax(np.abs(vec))]
    vec = vec * (abs(lead) / lead)
    return vec


def resonant_eigenvalues(center: np.ndarray, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Real center eigenvalues and their |<alpha|phi>|^2 weights, sorted.

    An eigenvalue is only visible to a two-lead scan at ``alpha`` if its
    weight there is nonzero: one below ``DARK_OVERLAP2`` is a dark state.
    A level counts as real when |Im lambda| <= 1e-9 max(1, max |lambda|),
    a cut that scales with the spectrum as eig's rounding noise does.

    A run of sorted levels whose neighbours lie within that same tolerance
    of each other is one degenerate eigenspace, and eig's basis of it is
    arbitrary: e_alpha meets it along one direction only.  So the run's
    eigenvectors are orthonormalised (QR), its first level gets the whole
    weight |Q^H e_alpha|^2 and the others 0, dark.  Every other level
    keeps its own eigenvector's weight.
    """
    hc = _center_block(center, alpha, finite=True)
    vals, vecs = np.linalg.eig(hc)
    order = np.argsort(vals.real, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    weights = np.abs(vecs[alpha - 1, :]) ** 2
    tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
    with np.errstate(over="ignore"):  # an infinite gap ends a degenerate run
        bounds = np.flatnonzero(np.abs(np.diff(vals)) > tol) + 1
    starts, stops = np.r_[0, bounds], np.r_[bounds, len(vals)]
    runs = stops - starts > 1
    for a, b in zip(starts[runs].tolist(), stops[runs].tolist()):
        q = np.linalg.qr(vecs[:, a:b])[0]
        weights[a] = np.sum(np.abs(q[alpha - 1]) ** 2)
        weights[a + 1 : b] = 0.0
    real = np.abs(vals.imag) <= tol
    return vals[real].real, weights[real]
