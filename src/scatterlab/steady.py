"""Exact plane-wave scattering with semi-infinite leads eliminated.

Under the outgoing-wave ansatz, a semi-infinite lead attached to a center
site contributes the energy-dependent boundary term J e^{ik} at that
site.  Substituting the wavefunction continuity relation r = t1 - 1 turns
the infinite scattering problem into a dense N x N linear system over the
center amplitudes:

    [H_c - E_k I + J e^{ik} (I + P_in)] t = 2 i J sin(k) e_in

where P_in projects onto the input attachment site (which carries two
leads) and E_k = 2 J cos k + mu.  The reflection amplitude is r = t_in - 1.
The two-lead geometry eliminates identically, with the single output lead
doubling the boundary term at the shared site.

Centers are small (a few hundred sites at most), so every solve is a
dense direct solve.  All functions are pure; scans are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import NumericalError, PhysicsError
from .lattice import dispersion

# A refined reflection minimum must fall below this to count as a resonance.
RESONANCE_R2 = 1e-8
# Grid candidates are local minima of |r|^2 below this threshold.
CANDIDATE_R2 = 1e-2
# |<alpha|phi>|^2 below this marks an eigenstate invisible to the scan.
DARK_OVERLAP2 = 1e-12


@dataclass(frozen=True)
class ScatteringSolution:
    """Reflection and transmission amplitudes at fixed (k, mu, J).

    ``flux_error`` is |r|^2 + sum|t|^2 - 1, meaningful for Hermitian
    centers where the scattering is unitary.  ``detuning`` is the distance
    min_n |E - lambda_n| from the probe energy to the nearest center
    eigenvalue (complex for gain/loss centers); ``width`` is 2|J| sin k,
    an upper bound on every level's Lorentzian half-width at half maximum
    in this geometry.  ``detuning > width`` therefore means the probe is
    off resonance.  ``warnings`` carries solver diagnostics (e.g.
    near-degenerate levels at the probe energy).
    """

    k: float
    energy: float
    r: complex
    t: np.ndarray
    flux_error: float
    detuning: float
    width: float
    warnings: tuple[str, ...] = ()

    @property
    def reflectance(self) -> float:
        return float(abs(self.r) ** 2)

    @property
    def transmittance(self) -> np.ndarray:
        return np.abs(self.t) ** 2


@dataclass(frozen=True)
class ResonanceScan:
    """Sampled |r|^2(mu) curve with refined resonance locations.

    ``resonances`` hold the refined mu* with |r(mu*)|^2 < 1e-8;
    ``dark_states`` lists real center eigenvalues inside the window whose
    wavefunction vanishes at the attachment site, so the scan cannot see
    them.
    """

    mu_grid: np.ndarray
    reflectance: np.ndarray
    resonances: tuple[float, ...]
    resonance_reflectance: tuple[float, ...]
    dark_states: tuple[float, ...] = ()


def _center_block(center: np.ndarray) -> np.ndarray:
    m = np.asarray(center, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PhysicsError(f"center block must be square, got shape {m.shape}")
    return m


def _check_k(k: float) -> None:
    if not 0 < k < np.pi:
        raise PhysicsError(
            f"wave vector k={k} outside (0, pi): zero group velocity, no propagating wave"
        )


def _degeneracy_warning(vals: np.ndarray, energy: float, J: float) -> tuple[str, ...]:
    """Warn when the two center levels ``vals`` nearest the probe energy sit
    closer than the level width ~J^2; the resonant-imaging picture degrades
    there (e.g. the zero-mode pair near the localization transition)."""
    if len(vals) < 2:
        return ()
    order = np.argsort(np.abs(vals - energy))
    a, b = vals[order[0]], vals[order[1]]
    gap = abs(a - b)
    if gap < J * J:
        return (
            f"levels {a:.6g} and {b:.6g} nearest E={energy:.6g} are split by "
            f"{gap:.3e} < J^2 = {J * J:.3e}; resonance may be a degenerate pair",
        )
    return ()


def solve_multichannel(
    center: np.ndarray,
    J: float,
    mu: float,
    k: float,
    input_site: int = 1,
) -> ScatteringSolution:
    """Solve the multichannel geometry: one output lead per center site,
    input lead at ``input_site`` (default 1).

    Continuity t_in - r = 1 holds by construction; for Hermitian centers
    the flux |r|^2 + sum|t|^2 = 1 is a property of the solution and is
    reported via ``flux_error``.
    """
    _check_k(k)
    if J == 0:
        raise PhysicsError("lead hopping J must be nonzero")
    hc = _center_block(center)
    n = hc.shape[0]
    if not 1 <= input_site <= n:
        raise PhysicsError(f"input site {input_site} outside [1, {n}]")
    energy = dispersion(J, mu, k)
    phase = J * np.exp(1j * k)
    a = hc - energy * np.eye(n) + phase * np.eye(n)
    a[input_site - 1, input_site - 1] += phase
    rhs = np.zeros(n, dtype=complex)
    rhs[input_site - 1] = 2j * J * np.sin(k)
    try:
        t = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular scattering system at mu={mu}, k={k}: {exc}") from exc
    r = t[input_site - 1] - 1.0
    flux_error = float(abs(r) ** 2 + np.sum(np.abs(t) ** 2) - 1.0)
    vals = np.linalg.eigvals(hc)
    return ScatteringSolution(
        k=k,
        energy=energy,
        r=r,
        t=t,
        flux_error=flux_error,
        detuning=float(np.min(np.abs(vals - energy))),
        width=float(2.0 * abs(J) * np.sin(k)),
        warnings=_degeneracy_warning(vals, energy, J),
    )


def two_lead_solve(
    center: np.ndarray,
    alpha: int,
    J: float,
    mu: float,
    k: float,
) -> tuple[complex, complex]:
    """Solve the two-lead geometry: input and output both attached at
    center site ``alpha``.  Returns ``(r, t)``.

    At k = pi/2 with mu equal to a real center eigenvalue whose
    wavefunction does not vanish at alpha, the transmission is perfect
    (r = 0) for any coupling strength J.

    When the probe energy sits exactly on a dark level (an eigenstate with
    no weight at alpha), the system is singular but the dark direction
    never reaches alpha, so every solution shares the same psi_alpha; r and
    t are then those of the center with the dark level removed.  A
    singularity that couples to alpha raises ``NumericalError``.
    """
    _check_k(k)
    if J == 0:
        raise PhysicsError("lead hopping J must be nonzero")
    hc = _center_block(center)
    n = hc.shape[0]
    if not 1 <= alpha <= n:
        raise PhysicsError(f"attachment site {alpha} outside [1, {n}]")
    energy = dispersion(J, mu, k)
    a = hc - energy * np.eye(n)
    a[alpha - 1, alpha - 1] += 2.0 * J * np.exp(1j * k)
    rhs = np.zeros(n, dtype=complex)
    rhs[alpha - 1] = 2j * J * np.sin(k)
    try:
        t = np.linalg.solve(a, rhs)[alpha - 1]
    except np.linalg.LinAlgError as exc:
        t = _dark_level_amplitude(a, rhs, alpha)
        if t is None:
            raise NumericalError(f"singular two-lead system at mu={mu}, k={k}: {exc}") from exc
    return t - 1.0, t


def _dark_level_amplitude(a: np.ndarray, rhs: np.ndarray, alpha: int) -> complex | None:
    """psi_alpha of the singular system a psi = rhs, or None if it is not
    determined.

    The right-hand side lies in the range of ``a`` exactly when every left
    null vector vanishes at alpha, and psi_alpha is unique exactly when
    every right null vector does ("vanishes" meaning weight below
    DARK_OVERLAP2, as for dark states).  The pseudo-inverse then gives it.
    """
    u, s, vh = np.linalg.svd(a)
    null = s <= s[0] * a.shape[0] * np.finfo(float).eps
    if np.sum(np.abs(u[alpha - 1, null]) ** 2) >= DARK_OVERLAP2:
        return None
    if np.sum(np.abs(vh[null, alpha - 1]) ** 2) >= DARK_OVERLAP2:
        return None
    keep = ~null
    coeffs = (u[:, keep].conj().T @ rhs) / s[keep]
    return complex(vh[keep, alpha - 1] @ coeffs)


def mu_scan(
    center: np.ndarray,
    alpha: int,
    J: float,
    k: float,
    mu_range: tuple[float, float],
    resolution: float,
) -> ResonanceScan:
    """Scan the lead potential mu, record |r|^2, and refine reflection
    zeros.

    Candidate local minima below 1e-2 are refined by golden-section
    minimization; only minima reaching |r|^2 < 1e-8 are reported as
    resonances.  Eigenstates with vanishing weight at the attachment site
    are reported separately as dark states.  A grid point that lands
    exactly on a dark level is solved as by ``two_lead_solve``: the dark
    level drops out and r is that of the remaining center.
    """
    mu_lo, mu_hi = mu_range
    if resolution <= 0:
        raise PhysicsError(f"scan resolution must be positive, got {resolution}")
    if mu_hi <= mu_lo:
        raise PhysicsError(f"empty scan range [{mu_lo}, {mu_hi}]")
    hc = _center_block(center)

    n_steps = int(np.floor((mu_hi - mu_lo) / resolution + 0.5))
    grid = mu_lo + resolution * np.arange(n_steps + 1)

    def r2(mu: float) -> float:
        r, _ = two_lead_solve(hc, alpha, J, mu, k)
        return float(abs(r) ** 2)

    curve = np.array([r2(mu) for mu in grid])

    resonances: list[float] = []
    res_r2: list[float] = []
    for i in range(1, len(grid) - 1):
        if not (curve[i] < curve[i - 1] and curve[i] <= curve[i + 1]):
            continue
        if curve[i] >= CANDIDATE_R2:
            continue
        res = minimize_scalar(
            r2,
            bracket=(grid[i - 1], grid[i], grid[i + 1]),
            method="golden",
            options={"xtol": 1e-13},
        )
        if res.fun < RESONANCE_R2:
            resonances.append(float(res.x))
            res_r2.append(float(res.fun))

    vals, weights = resonant_eigenvalues(hc, alpha)
    dark = vals[(mu_lo <= vals) & (vals <= mu_hi) & (weights < DARK_OVERLAP2)]

    return ResonanceScan(
        mu_grid=grid,
        reflectance=curve,
        resonances=tuple(resonances),
        resonance_reflectance=tuple(res_r2),
        dark_states=tuple(dark.tolist()),
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

    Convenience for scan cross-checks: an eigenvalue is only visible to a
    two-lead scan at ``alpha`` if its weight there is nonzero.
    """
    hc = _center_block(center)
    n = hc.shape[0]
    if not 1 <= alpha <= n:
        raise PhysicsError(f"attachment site {alpha} outside [1, {n}]")
    vals, vecs = np.linalg.eig(hc)
    order = np.argsort(vals.real, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    weights = np.abs(vecs[alpha - 1, :]) ** 2
    real = np.abs(vals.imag) <= 1e-9
    return vals[real].real, weights[real]
