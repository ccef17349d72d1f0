"""Time-domain scattering: Gaussian packet injection, propagation under
the full network Hamiltonian, and channel probability analysis.

The same operator drives the coupled-waveguide realization, where the
propagation distance z plays the role of time; ``propagate`` is that
mapping, there is no separate code path.

Propagation method: Hermitian networks use a Chebyshev expansion of
exp(-iHt) with Gershgorin spectral bounds (the truncation order grows
linearly with the spectral radius times the step, so one sparse
matrix-vector product per polynomial term).  Non-Hermitian networks are
delegated to scipy's expm_multiply, which handles general complex
spectra with backward-error control.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv

from .errors import NumericalError, PhysicsError
from .lattice import (
    Hamiltonian,
    NetworkSpec,
    SiteRegistry,
    assemble_network,
    group_velocity,
)

# Chebyshev truncation never runs looser than this, regardless of the
# requested budget; terms beyond the Bessel-coefficient decay are cheap.
_CUTOFF_CEILING = 1e-11
_CUTOFF_FLOOR = 1e-15
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

    ``tol_per_time`` is the local error budget per unit time (the actual
    Chebyshev truncation is clamped to at least 1e-10 accuracy, two
    orders below any physics tolerance used downstream).  ``snapshot_stride``
    is the time between stored snapshots (default: base stop time / 60);
    ``t_max`` bounds the extension phase (default: 3x base stop time).
    Snapshots store site probabilities only; set ``store_states`` to keep
    the full complex states.
    """

    tol_per_time: float = 1e-8
    snapshot_stride: float | None = None
    t_max: float | None = None
    store_states: bool = False

    def __post_init__(self) -> None:
        if self.tol_per_time <= 0:
            raise PhysicsError("tol_per_time must be positive")
        if self.snapshot_stride is not None and self.snapshot_stride <= 0:
            raise PhysicsError("snapshot_stride must be positive")


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
    network: NetworkSpec | None = None
    packet: WavePacketSpec | None = None
    states: np.ndarray | None = field(default=None, repr=False)
    warnings: tuple[str, ...] = ()

    def channel_history(self) -> np.ndarray:
        """Per-snapshot channel probabilities, shape (n_snapshots, n_channels+1)."""
        reg = self.registry
        out = np.empty((len(self.times), reg.n_outputs + 1))
        out[:, 0] = self.site_probabilities[:, reg.input_indices()].sum(axis=1)
        for chan in range(1, reg.n_outputs + 1):
            out[:, chan] = self.site_probabilities[:, reg.output_indices(chan)].sum(axis=1)
        return out


def init_gaussian(network: Hamiltonian, spec: WavePacketSpec) -> np.ndarray:
    """Unit-norm Gaussian packet on the input lead, zero elsewhere.

    Amplitude at physical site j is exp(-(j - N_c)^2 / 2 sigma^2) e^{i k j}
    up to normalization, with N_c = ``spec.center_site``.

    The packet must fit the L-site input lead, |N_c| + 4 sigma < L, so
    that its tail beyond the lead end is negligible (the stop time relies
    on the same 4 sigma); a packet that does not fit raises
    ``PhysicsError``.  The plane-wave limit is reached inside this rule:
    within a window much narrower than sigma the packet is e^{ikj}.
    """
    reg = network.registry
    if not reg.has_input:
        raise PhysicsError("network has no input lead to host the packet")
    L = reg.lead_length
    if abs(spec.center_site) + 4 * spec.sigma >= L:
        raise PhysicsError(
            f"packet (center {spec.center_site}, sigma {spec.sigma}) overflows the "
            f"{L}-site input lead: |N_c| + 4 sigma must stay below the lead length"
        )
    psi = np.zeros(reg.dim, dtype=complex)
    j = -np.arange(1.0, L + 1.0)  # input offset o holds physical site -o
    envelope = np.exp(-((j - spec.center_site) ** 2) / (2.0 * spec.sigma**2))
    psi[reg.input_indices()] = envelope * np.exp(1j * spec.k * j)
    psi /= np.linalg.norm(psi)

    if isinstance(network.spec, NetworkSpec):
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


def _chebyshev_expm(m: sp.spmatrix, psi: np.ndarray, t: float, cutoff: float) -> np.ndarray:
    """exp(-i m t) psi for Hermitian m via the Chebyshev/Bessel series."""
    lo, hi = _gershgorin_interval(m)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    if half <= 0:
        return np.exp(-1j * mid * t) * psi
    big_r = half * t
    m_max = int(big_r + 60 + 20 * big_r ** (1.0 / 3.0))
    if m_max > _MAX_ORDER:
        raise NumericalError(
            f"Chebyshev order {m_max} exceeds the step budget; split the time interval"
        )
    orders = np.arange(m_max + 1)
    bess = jv(orders, big_r)
    above = np.nonzero(np.abs(bess) > cutoff)[0]
    top = int(above[-1]) + 1 if above.size else 2
    top = max(top, 2)
    coeffs = 2.0 * (-1j) ** orders[: top + 1] * bess[: top + 1]
    coeffs[0] *= 0.5

    scaled = (m - mid * sp.identity(m.shape[0], format="csr", dtype=complex)) * (1.0 / half)
    phi_prev = psi.astype(complex, copy=True)
    phi = scaled.dot(phi_prev)
    acc = coeffs[0] * phi_prev + coeffs[1] * phi
    for order in range(2, top + 1):
        phi_prev, phi = phi, 2.0 * scaled.dot(phi) - phi_prev
        acc += coeffs[order] * phi
    return np.exp(-1j * mid * t) * acc


def propagate(
    H: Hamiltonian, psi0: np.ndarray, t: float, cfg: PropagatorConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Evolved state exp(-iHt) psi0, valid for Hermitian and
    non-Hermitian H alike (no unitarity assumption, no renormalization)."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (H.dim,):
        raise PhysicsError(
            f"state dimension {psi0.shape} does not match Hamiltonian dim {H.dim}"
        )
    if t < 0:
        raise PhysicsError(f"propagation time must be nonnegative, got {t}")
    if t == 0:
        return psi0.copy()
    if H.hermitian:
        cutoff = float(np.clip(cfg.tol_per_time * max(t, 1.0) * 0.1, _CUTOFF_FLOOR, _CUTOFF_CEILING))
        return _chebyshev_expm(H.matrix, psi0, t, cutoff)
    return expm_multiply(H.matrix * (-1j * t), psi0)


def channel_probabilities(psi: np.ndarray, registry: SiteRegistry) -> np.ndarray:
    """Probability collected in each channel: p[0] over the input lead
    (the reflected part after scattering), p[l] over output lead l."""
    prob = np.abs(np.asarray(psi)) ** 2
    p = np.empty(registry.n_outputs + 1)
    p[0] = prob[registry.input_indices()].sum()
    for chan in range(1, registry.n_outputs + 1):
        p[chan] = prob[registry.output_indices(chan)].sum()
    return p


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


def _near_junction_probability(prob: np.ndarray, reg: SiteRegistry, width: int = 5) -> float:
    """Largest per-lead probability within ``width`` sites of a junction."""
    worst = prob[reg.input_indices()[:width]].sum()
    for chan in range(1, reg.n_outputs + 1):
        worst = max(worst, prob[reg.output_indices(chan)[:width]].sum())
    return float(worst)


def _end_leakage(prob: np.ndarray, reg: SiteRegistry, width: int = 5) -> float:
    """Largest per-lead probability within ``width`` sites of a truncated
    far end (re-reflection there is a finite-lead artifact)."""
    worst = prob[reg.input_indices()[-width:]].sum()
    for chan in range(1, reg.n_outputs + 1):
        worst = max(worst, prob[reg.output_indices(chan)[-width:]].sum())
    return float(worst)


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
    states = [psi.copy()] if cfg.store_states else None
    notes: list[str] = []

    t = 0.0
    while True:
        step = min(stride, t_max - t)
        if step <= 0:
            break
        psi = propagate(network, psi, step, cfg)
        t += step
        prob = np.abs(psi) ** 2
        times.append(t)
        site_probs.append(prob)
        norms.append(float(np.linalg.norm(psi)))
        if states is not None:
            states.append(psi.copy())
        if t + 1e-9 >= t_base and _near_junction_probability(prob, reg) < FINISH_THRESHOLD:
            break
        if t + 1e-9 >= t_max:
            msg = (
                f"t_max={t_max:.6g} reached with {_near_junction_probability(prob, reg):.3e} "
                "probability still near the junctions; scattering unfinished"
            )
            notes.append(msg)
            _warnings.warn(msg, stacklevel=2)
            break

    prob = np.abs(psi) ** 2
    leakage = _end_leakage(prob, reg)
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
        center_probability=float(prob[reg.center_indices()].sum()),
        final_time=t,
        final_state=psi,
        registry=reg,
        network=net,
        packet=packet,
        states=np.asarray(states) if states is not None else None,
        warnings=tuple(notes),
    )
