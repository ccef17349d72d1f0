"""Time-domain scattering: Gaussian packet injection, propagation under
the full network Hamiltonian, and channel probability analysis.

The same operator drives the coupled-waveguide realization, where the
propagation distance z plays the role of time; ``propagate`` is that
mapping, there is no separate code path.

Propagation method: one Chebyshev expansion of exp(-iHt) serves Hermitian
and gain/loss networks alike.  Gershgorin intervals of the Hermitian part
(H + H^dag)/2 and of (H - H^dag)/2i bound the numerical range of H by a
rectangle.  H is shifted by the rectangle's complex centre, so the scalar
factor exp(-i c t) carries uniform gain or loss exactly, and scaled by its
larger half-width.  The series in Bessel coefficients J_n(R) then
converges on the ellipse with foci +-1 through the rectangle's corners,
with parameter rho >= 1 (rho = 1 for Hermitian H); terms are kept while
|J_n(R)| rho^n exceeds a fixed cutoff (Tal-Ezer & Kosloff, J. Chem. Phys.
81, 3967, 1984).  The numerical range is a (1 + sqrt 2)-spectral set
(Crouzeix & Palencia, SIAM J. Matrix Anal. Appl. 38, 649, 2017), so the
same weights bound the truncation error for non-normal H.  Each term
costs one sparse matrix-vector product.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.special import jv

from .errors import NumericalError, PhysicsError
from .lattice import (
    Hamiltonian,
    NetworkSpec,
    SiteRegistry,
    assemble_network,
    group_velocity,
)

# Chebyshev terms are kept while their weight |J_n(R)| rho^n exceeds this,
# two orders below any physics tolerance used downstream.
_CUTOFF = 1e-11
# Hard cap on the polynomial order of a single step.
_MAX_ORDER = 5_000_000
# Scattering counts as finished once every lead holds less probability
# than this within 5 sites of its junction; the same level flags leakage
# at the truncated far ends.
FINISH_THRESHOLD = 1e-4


@dataclass(frozen=True)
class WavePacketSpec:
    """Gaussian packet on the input lead: centered at (negative) site
    ``center_site`` with width ``sigma`` and central wave vector ``k``.

    It must fit its lead: ``init_gaussian`` requires |N_c| + 4 sigma < L
    for an L-site input lead."""

    center_site: int
    sigma: float
    k: float

    def __post_init__(self) -> None:
        if self.center_site >= 0:
            raise PhysicsError(
                f"packet center {self.center_site} must be a negative input-lead site"
            )
        if self.sigma <= 0:
            raise PhysicsError(f"packet width sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class PropagatorConfig:
    """Knobs for propagation and recording.

    ``snapshot_stride`` is the time between stored snapshots (default:
    base stop time / 60); ``t_max`` bounds the extension phase (default:
    3x base stop time).  Both must be positive.
    """

    snapshot_stride: float | None = None
    t_max: float | None = None

    def __post_init__(self) -> None:
        if self.snapshot_stride is not None and not self.snapshot_stride > 0:
            raise PhysicsError("snapshot_stride must be positive")
        if self.t_max is not None and not self.t_max > 0:
            raise PhysicsError("t_max must be positive")


DEFAULT_CONFIG = PropagatorConfig()


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Everything recorded from one wave-packet experiment: snapshot
    times, per-site probabilities, norms, and the final per-channel
    probability sums p_0..p_N."""

    times: np.ndarray
    site_probabilities: np.ndarray
    norms: np.ndarray
    channel_probabilities: np.ndarray
    center_probability: float
    final_time: float
    final_state: np.ndarray
    registry: SiteRegistry
    warnings: tuple[str, ...] = ()

    def channel_history(self) -> np.ndarray:
        """Per-snapshot channel probabilities, shape (n_snapshots, n_channels+1)."""
        reg = self.registry
        return self.site_probabilities[:, reg.leads(np.arange(reg.dim))].sum(axis=-1)


def init_gaussian(network: Hamiltonian, spec: WavePacketSpec) -> np.ndarray:
    """Unit-norm Gaussian packet on the input lead of an assembled
    ``network``, zero elsewhere.

    Amplitude at physical site j is exp(-(j - N_c)^2 / 2 sigma^2) e^{i k j}
    up to normalization, with N_c = ``spec.center_site``.

    The packet must fit the L-site input lead, |N_c| + 4 sigma < L, so
    that its tail beyond the lead end is negligible (the stop time relies
    on the same 4 sigma); a packet that does not fit raises
    ``PhysicsError``.  The plane-wave limit is reached inside this rule:
    within a window much narrower than sigma the packet is e^{ikj}.
    """
    reg = network.registry
    L = reg.lead_length
    if abs(spec.center_site) + 4 * spec.sigma >= L:
        raise PhysicsError(
            f"packet (center {spec.center_site}, sigma {spec.sigma}) overflows the "
            f"{L}-site input lead: |N_c| + 4 sigma must stay below the lead length"
        )
    psi = np.zeros(reg.dim, dtype=complex)
    j = -np.arange(1.0, L + 1.0)  # input offset o holds physical site -o
    envelope = np.exp(-((j - spec.center_site) ** 2) / (2.0 * spec.sigma**2))
    reg.leads(psi)[0] = envelope * np.exp(1j * spec.k * j)
    psi /= np.linalg.norm(psi)

    J = network.spec.lead.J
    if J * np.sin(spec.k) > 0:
        _warnings.warn(
            "packet group velocity points away from the scattering center "
            f"(J={J}, k={spec.k}); use the opposite sign of k for an incoming packet",
            stacklevel=2,
        )
    return psi


def _gershgorin_interval(m: sp.spmatrix) -> tuple[float, float]:
    d = m.diagonal()
    radii = np.asarray(abs(m).sum(axis=1)).ravel() - np.abs(d)
    return float((d.real - radii).min()), float((d.real + radii).max())


@lru_cache(maxsize=8)
def _chebyshev_plan(H: Hamiltonian, t: float):
    """(phase, scaled operator, coefficients) of exp(-iHt) = phase *
    sum_n coeffs[n] T_n(scaled); for diagonal H the phase alone, with
    ``None`` for the other two.  Memoised per network object and step."""
    m = H.matrix
    re_lo, re_hi = _gershgorin_interval((m + m.getH()) * 0.5)
    im_lo, im_hi = _gershgorin_interval((m - m.getH()) * -0.5j)
    mid = complex(0.5 * (re_hi + re_lo), 0.5 * (im_hi + im_lo))
    re_half, im_half = 0.5 * (re_hi - re_lo), 0.5 * (im_hi - im_lo)
    half = max(re_half, im_half)
    if half <= 0:
        return np.exp(-1j * m.diagonal() * t), None, None
    corner = complex(re_half, im_half) / half
    rho = abs(corner + np.sqrt(corner**2 - 1))
    big_r = half * t
    # |J_n(R)| rho^n <= (R rho / 2)^n / n! < (e R rho / 2n)^n, which is below
    # e^-26 < cutoff from n = e R rho / 2 + 26 on: every kept order is < m_max
    m_max = int(0.5 * np.e * rho * big_r + 60)
    if m_max > _MAX_ORDER:
        raise NumericalError(
            f"Chebyshev order {m_max} exceeds the step budget; split the time interval"
        )
    orders = np.arange(m_max + 1)
    bess = jv(orders, big_r)
    # weight > cutoff, with rho^n taken in log space so that it cannot overflow
    above = np.nonzero(np.abs(bess) > _CUTOFF * np.exp(-orders * np.log(rho)))[0]
    top = int(above[-1]) + 1 if above.size else 2
    top = max(top, 2)
    coeffs = 2.0 * (-1j) ** orders[: top + 1] * bess[: top + 1]
    coeffs[0] *= 0.5
    scaled = (m - mid * sp.identity(m.shape[0], format="csr", dtype=complex)) * (1.0 / half)
    return np.exp(-1j * mid * t), scaled, coeffs


def propagate(H: Hamiltonian, psi0: np.ndarray, t: float) -> np.ndarray:
    """Evolved state exp(-iHt) psi0, valid for Hermitian and
    non-Hermitian H alike (no unitarity assumption, no renormalization)."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (H.dim,):
        raise PhysicsError(
            f"state dimension {psi0.shape} does not match Hamiltonian dim {H.dim}"
        )
    if not (t >= 0 and np.isfinite(t)):
        raise PhysicsError(f"propagation time must be finite and nonnegative, got {t}")
    if t == 0:
        return psi0.copy()
    phase, scaled, coeffs = _chebyshev_plan(H, float(t))
    if scaled is None:
        return phase * psi0
    phi_prev, phi = psi0, scaled.dot(psi0)
    acc = coeffs[0] * phi_prev + coeffs[1] * phi
    for coeff in coeffs[2:]:
        phi_prev, phi = phi, 2.0 * scaled.dot(phi) - phi_prev
        acc += coeff * phi
    return phase * acc


def channel_probabilities(psi: np.ndarray, registry: SiteRegistry) -> np.ndarray:
    """Probability collected in each channel: p[0] over the input lead
    (the reflected part after scattering), p[l] over output lead l."""
    return registry.leads(np.abs(np.asarray(psi)) ** 2).sum(axis=-1)


def visibility(p: np.ndarray, eta: int = 1, floor: float = 1e-10) -> float:
    """Contrast of neighboring odd channels:
    |p_{2 eta + 1} - p_{2 eta - 1}| / (p_{2 eta + 1} + p_{2 eta - 1}).

    Raises when both probabilities sit below ``floor`` -- every chain is
    off-resonant there and the contrast is not well defined.
    """
    lo, hi = 2 * eta - 1, 2 * eta + 1
    if eta < 1 or hi >= len(p):
        raise PhysicsError(f"eta={eta} outside the available channel range")
    total = p[lo] + p[hi]
    if total <= floor:
        raise PhysicsError(
            f"visibility not well defined: p_{lo} + p_{hi} = {total:.3e} <= {floor}"
        )
    return float(abs(p[hi] - p[lo]) / total)


def stop_time(net: NetworkSpec, spec: WavePacketSpec) -> float:
    """Base estimate of the scattering completion time:
    (|N_c| + 4 sigma + N) / v_g with v_g = 2 |J| sin k.

    The margin covers the packet tails plus the center traversal;
    ``run_experiment`` extends past this estimate until the outgoing
    packets have cleanly left the junction region.
    """
    v_g = group_velocity(net.lead.J, spec.k)
    if v_g == 0:
        raise PhysicsError(f"zero group velocity at k={spec.k}; packet cannot propagate")
    margin = 4.0 * spec.sigma + net.center.n_sites
    return (abs(spec.center_site) + margin) / v_g


def _edge_probability(prob: np.ndarray, reg: SiteRegistry, sites: slice) -> float:
    """Largest per-lead probability over ``sites`` of every lead: ``[:5]``
    next to the junctions, ``[-5:]`` at the truncated far ends (where
    re-reflection is a finite-lead artifact)."""
    return float(reg.leads(prob)[:, sites].sum(axis=-1).max())


def run_experiment(
    net: NetworkSpec,
    packet: WavePacketSpec,
    cfg: PropagatorConfig = DEFAULT_CONFIG,
) -> TrajectoryRecord:
    """Full wave-packet experiment: inject, propagate with snapshots,
    stop once scattering has finished, and sum up channel probabilities.

    The stop check runs from the base ``stop_time`` estimate onward: the
    run ends when every lead holds less than ``FINISH_THRESHOLD``
    probability within 5 sites of its junction, or at ``t_max`` (with a
    warning).  A warning is also attached when probability has reached
    the truncated far ends, since whatever follows is a finite-lead
    artifact.
    """
    network = assemble_network(net)
    reg = network.registry
    psi = init_gaussian(network, packet)

    t_base = stop_time(net, packet)
    stride = cfg.snapshot_stride if cfg.snapshot_stride is not None else t_base / 60.0
    t_max = cfg.t_max if cfg.t_max is not None else 3.0 * t_base

    times = [0.0]
    site_probs = [np.abs(psi) ** 2]
    norms = [float(np.linalg.norm(psi))]
    notes: list[str] = []

    t = 0.0
    while True:
        step = min(stride, t_max - t)
        if step <= 0:
            break
        psi = propagate(network, psi, step)
        t += step
        prob = np.abs(psi) ** 2
        times.append(t)
        site_probs.append(prob)
        norms.append(float(np.linalg.norm(psi)))
        if t + 1e-9 >= t_base and _edge_probability(prob, reg, np.s_[:5]) < FINISH_THRESHOLD:
            break
        if t + 1e-9 >= t_max:
            msg = (
                f"t_max={t_max:.6g} reached with {_edge_probability(prob, reg, np.s_[:5]):.3e} "
                "probability still near the junctions; scattering unfinished"
            )
            notes.append(msg)
            _warnings.warn(msg, stacklevel=2)
            break

    prob = np.abs(psi) ** 2
    leakage = _edge_probability(prob, reg, np.s_[-5:])
    if leakage > FINISH_THRESHOLD:
        msg = (
            f"probability {leakage:.3e} within 5 sites of a truncated lead end at "
            f"t={t:.6g}; results may carry finite-lead artifacts"
        )
        notes.append(msg)
        _warnings.warn(msg, stacklevel=2)

    return TrajectoryRecord(
        times=np.asarray(times),
        site_probabilities=np.asarray(site_probs),
        norms=np.asarray(norms),
        channel_probabilities=channel_probabilities(psi, reg),
        center_probability=float(prob[: reg.n_center].sum()),
        final_time=t,
        final_state=psi,
        registry=reg,
        warnings=tuple(notes),
    )
