"""Time-domain scattering: Gaussian packet injection, propagation under
the full network Hamiltonian, and channel probability analysis.

The same operator drives the coupled-waveguide realization, where the
propagation distance z plays the role of time; ``propagate`` is that
mapping, there is no separate code path.

A packet's k must be the incident wave vector the steady solver also
reads, ``lattice.incident_wave_vector``: J sin k < 0.  ``run_experiment``
refuses any other packet before it assembles the network.

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
same weights would bound the truncation error for non-normal H.  On the
gain/loss networks of figures 6a-d that bound says little: on figure 6a
(rho = 1.643, R = 659.6) the weights reach 2.9e146 at n = 741, and they
fall below the cutoff only at n = 1,414, where J_n(R) = 6.3e-317 is a
subnormal float, so each stride carries 1,415 terms.  The accuracy of
such a series rests on checks against dense ``expm``, not on a bound
(ROADMAP item 12).  The weights J_0(R) ... J_m(R) come from the Bessel
recurrence taken backwards (``_bessel_j``), within 1.4e-16 of a 40-digit
evaluation at the R of figures 3a-d and 6a, and each coefficient's phase
(-i)^n is exact: every coefficient is exactly real or exactly imaginary.

Each term costs one sparse matrix-vector product plus four in-place
vector operations; the loop allocates nothing per term.  The product is
split by rows once, in the memoised plan (``_kernel``).  The lead chains'
rows, all but 2N + 1 rows of an N-site centre's network, are real and
within one site of the diagonal on every figure's network, Hermitian
(figures 3a-d and 5) or gain/loss (6a-d).  They form a real band that
runs through scipy's ``dia_matvec`` on the float64 view of the state,
without index indirection.  The junction rows (the centre and each
lead's first site) run through ``csr_matvecs`` on a small complex CSR
remainder, on the complex state, and overwrite their rows of the banded
product; so does any other row that is complex, reaches further or is
stored out of order.  A custom centre with unbalanced gain or loss
shifts the lead diagonal off the real axis, and every row of its
network runs in the remainder.  Both kernels are called straight into
reused buffers and give the textbook recurrence's bits for a finite
state; ``propagate`` refuses any other.  The recurrence's factor 2 stays a
vector pass of its own, since (2a) x rounds apart from 2 (a x) where a x
falls below the normal float range.  scipy is loaded only as
``scipy.sparse``, when a network is assembled or a step is planned
(``assemble_network``, ``_chebyshev_plan``), so importing the package and
every steady-state run stay on numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, PhysicsError
from .lattice import (
    Hamiltonian,
    NetworkSpec,
    _require_finite,
    assemble_network,
    group_velocity,
    incident_wave_vector,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

# Chebyshev terms are kept while their weight |J_n(R)| rho^n exceeds this,
# two orders below any physics tolerance used downstream.
_CUTOFF = 1e-11
# Hard cap on the polynomial order of a single step.
_MAX_ORDER = 5_000_000
# Scattering counts as finished once every lead holds less probability
# than this within 5 sites of its junction; the same level flags leakage
# at the truncated far ends.
FINISH_THRESHOLD = 1e-4
# Cap on the snapshot values a run may store, (snapshots) x (network
# dimension): 200 MB of float64, allocated once and resident only as far
# as the run writes it, where a figure needs at most 181 x 8,240.
_MAX_SNAPSHOT_VALUES = 25_000_000
# Neighbouring odd channels holding less than this in total have no
# well-defined visibility.
_VISIBILITY_FLOOR = 1e-10


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
        _require_finite(self, "sigma", "k")
        if self.sigma <= 0:
            raise PhysicsError(f"packet width sigma must be positive, got {self.sigma}")
        # the envelope's denominator 2 sigma**2 underflows to 0, spelled as
        # init_gaussian spells it; ** only below 1, past which it would raise
        # OverflowError where a huge sigma is left to the lead fit
        if self.sigma < 1 and 2.0 * self.sigma**2 == 0:
            raise PhysicsError(f"packet width sigma={self.sigma} is so small that 2 sigma^2 is 0")


@dataclass(frozen=True)
class PropagatorConfig:
    """Knobs for propagation and recording.

    ``snapshot_stride`` is the time between stored snapshots (default:
    base stop time / 60); ``t_max`` bounds the extension phase (default:
    3x base stop time).  Both must be positive and finite.
    """

    snapshot_stride: float | None = None
    t_max: float | None = None

    def __post_init__(self) -> None:
        for name in ("snapshot_stride", "t_max"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise PhysicsError(f"{name} must be positive and finite, got {value}")


DEFAULT_CONFIG = PropagatorConfig()


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Everything recorded from one wave-packet experiment: snapshot
    times, per-site probabilities and norms.  The run ends at
    ``times[-1]``, and every readout is derived from the snapshots.

    ``site_probabilities`` holds |psi|^2 of each snapshot as one row, the
    only copy of the snapshots: a view of the written rows of the array
    ``run_experiment`` allocates for its snapshot budget."""

    times: np.ndarray
    site_probabilities: np.ndarray
    norms: np.ndarray
    final_state: np.ndarray
    network: NetworkSpec
    warnings: tuple[str, ...] = ()

    def channel_history(self) -> np.ndarray:
        """Per-snapshot channel probabilities, shape (n_snapshots, n_channels+1).

        numpy's sum over each lead's offsets on the ``leads`` view of the
        snapshots, no copy of them: p[0] over the input lead, p[l] over
        output lead l."""
        return self.network.leads(self.site_probabilities).sum(axis=-1)

    @property
    def channel_probabilities(self) -> np.ndarray:
        """Final per-channel probabilities p_0..p_N: the last row of
        ``channel_history()``, bit for bit."""
        return self.network.leads(self.site_probabilities[-1]).sum(axis=-1)

    @property
    def center_probability(self) -> float:
        """Final probability on the centre sites."""
        return float(self.site_probabilities[-1, : self.network.center.n_sites].sum())


def init_gaussian(net: NetworkSpec, spec: WavePacketSpec) -> np.ndarray:
    """Unit-norm Gaussian packet on the input lead of ``net``, zero
    elsewhere, laid out in the basis of ``assemble_network(net)``: center
    sites, then the input lead, then output leads 1..n.

    Amplitude at physical site j is exp(-(j - N_c)^2 / 2 sigma^2) e^{i k j}
    up to normalization, with N_c = ``spec.center_site``; input-lead
    offset o holds physical site -o.

    The packet must fit the L-site input lead, |N_c| + 4 sigma < L, so
    that its tail beyond the lead end is negligible (the stop time relies
    on the same 4 sigma); a packet that does not fit raises
    ``PhysicsError``.  The plane-wave limit is reached inside this rule:
    within a window much narrower than sigma the packet is e^{ikj}.
    """
    _require_fit(net, spec)
    L = net.lead.length
    psi = np.zeros(net.dim, dtype=complex)
    j = -np.arange(1.0, L + 1.0)
    # a tiny sigma overflows the exponent to -inf, whose exp 0 is the exact limit
    with np.errstate(over="ignore"):
        envelope = np.exp(-((j - spec.center_site) ** 2) / (2.0 * spec.sigma**2))
    net.leads(psi)[0] = envelope * np.exp(1j * spec.k * j)
    psi /= np.linalg.norm(psi)
    return psi


def _require_fit(net: NetworkSpec, spec: WavePacketSpec) -> None:
    """Refuse a packet that does not fit the L-site input lead, |N_c| +
    4 sigma < L, testing the exact integer L + N_c: no float overflow."""
    L = net.lead.length
    if L + spec.center_site <= 4 * spec.sigma:
        raise PhysicsError(
            f"packet (center {spec.center_site}, sigma {spec.sigma}) overflows the "
            f"{L}-site input lead: |N_c| + 4 sigma must stay below the lead length"
        )


def _gershgorin_interval(m: sp.spmatrix) -> tuple[float, float]:
    d = m.diagonal()
    radii = np.asarray(abs(m).sum(axis=1)).ravel() - np.abs(d)
    return float((d.real - radii).min()), float((d.real + radii).max())


def _bessel_j(m: int, x: float) -> np.ndarray:
    """J_0(x) ... J_m(x) for x >= 0, the minimal solution of the three-term
    recurrence taken backwards (Gautschi, SIAM Rev. 9, 24, 1967).

    The ratios r_n = J_n / J_{n-1} = x / (2n - x r_{n+1}) run down from
    order m + 20 + floor(sqrt(40 x)), taking r = 0 above it, where J_n is
    negligible against every returned order; their products from 1 are
    J_n / J_0, and one division by J_0 + 2 sum J_2k = 1, summed exactly by
    ``math.fsum``, normalises them.  Ratios, products and weights share one
    float64 array, 8 bytes per order.

    A denominator that rounds to 0 (at order 4 for x = 9.76102312998167, a
    zero of J_3) takes the rounding level of 2n instead: r_n is then huge
    and r_{n-1} r_n = -1 to rounding, as J_n = -J_{n-2} where J_{n-1} = 0."""
    top = m + 20 + int(math.sqrt(40.0 * x))
    ratios = np.empty(top + 1)
    ratios[0] = 1.0
    r = 0.0
    for n in range(top, 0, -1):
        d = 2 * n - x * r
        if d == 0:  # x is a zero of J_{n-1} to rounding: d takes the rounding level
            d = math.ulp(2 * n)
        r = x / d
        ratios[n] = r
    products = np.cumprod(ratios, out=ratios)
    # J_0 + 2 sum J_2k, each even order listed twice: one rounding, no copy
    norm = math.fsum(itertools.chain(products[:1], products[2::2], products[2::2]))
    products[: m + 1] /= norm
    return products[: m + 1]


@lru_cache(maxsize=8)
def _chebyshev_plan(H: Hamiltonian, t: float):
    """(phase, scaled operator, coefficients, ``_kernel`` of the scaled
    operator) of exp(-iHt) = phase * sum_n coeffs[n] T_n(scaled);
    for H = cI (both Gershgorin half-widths zero; any other diagonal H
    runs the series) the phase alone, with ``None`` for the other three.
    Memoised per network object and step.

    Terms are kept while |J_n(R)| rho^n exceeds ``_CUTOFF``, J_n(R) from
    ``_bessel_j``.  Where rho > 1 that weight falls below the cutoff only
    where J_n(R) is subnormal: on figure 6a at n = 1,414, with J_n(R) =
    6.3e-317, after a peak of 2.9e146 at n = 741 (ROADMAP item 12)."""
    import scipy.sparse as sp

    m = H.matrix
    # entries near the float maximum overflow here; the check below refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        re_lo, re_hi = _gershgorin_interval((m + m.getH()) * 0.5)
        im_lo, im_hi = _gershgorin_interval((m - m.getH()) * -0.5j)
    if not np.isfinite([re_lo, re_hi, im_lo, im_hi]).all():
        raise NumericalError(
            "spectral half-width of H overflows: its Gershgorin rectangle is not finite"
        )
    mid = complex(0.5 * (re_hi + re_lo), 0.5 * (im_hi + im_lo))
    re_half, im_half = 0.5 * (re_hi - re_lo), 0.5 * (im_hi - im_lo)
    half = max(re_half, im_half)
    if half <= 0:
        return np.exp(-1j * m.diagonal() * t), None, None, None
    corner = complex(re_half, im_half) / half
    rho = abs(corner + np.sqrt(corner**2 - 1))
    big_r = half * t
    if not np.isfinite(big_r):  # a half-width beyond the float range
        raise NumericalError(
            f"spectral half-width {half:.6g} of H times the step {t:.6g} overflows"
        )
    # |J_n(R)| rho^n <= (R rho / 2)^n / n! < (e R rho / 2n)^n, which is below
    # e^-26 < cutoff from n = e R rho / 2 + 26 on: every kept order is < m_max
    order = 0.5 * np.e * rho * big_r + 60
    if order > _MAX_ORDER:
        raise NumericalError(
            f"Chebyshev order {order:.3g} exceeds the step budget; split the time interval"
        )
    m_max = int(order)
    orders = np.arange(m_max + 1)
    bess = _bessel_j(m_max, big_r)
    # weight > cutoff, with rho^n taken in log space so that it cannot overflow
    above = np.nonzero(np.abs(bess) > _CUTOFF * np.exp(-orders * np.log(rho)))[0]
    top = int(above[-1]) + 1 if above.size else 2
    top = max(top, 2)
    # (-i)^n by n mod 4: exact, where numpy's (-1j) ** n is not from n = 100 on
    coeffs = 2.0 * np.array([1, -1j, -1, 1j])[orders[: top + 1] % 4] * bess[: top + 1]
    coeffs[0] *= 0.5
    scaled = (m - mid * sp.identity(m.shape[0], format="csr", dtype=complex)) * (1.0 / half)
    return np.exp(-1j * mid * t), scaled, coeffs, _kernel(scaled)


def _kernel(scaled: sp.csr_matrix) -> tuple:
    """Arguments that make scipy's kernels compute scaled x, split by
    rows: ``(band, rows, remainder)``.

    A band row stores only real entries, within one site of the diagonal,
    in ascending column order: every lead site but the first, on every
    figure's network.  ``band`` holds those rows as real diagonals for
    ``dia_matvec`` on the interleaved (re, im) float64 view of x: as
    A (x) I_2, offsets 2 (kept - 1) ascending, so each row's products are
    added in offset order, the CSR row sum's order.  A complex product
    (a + 0i)(x_r + i x_i) rounds to exactly a x_r and a x_i, apart from
    the sign of a zero, so the real kernel gives the complex one's bits
    with fewer operations per entry.  A row that lacks an entry holds a
    stored zero there, adding +-0 to a sum that starts at +0 and so is
    never -0: no bit of a finite state moves.  A diagonal of zeros only
    (the main one without an on-site term) is left out.

    Every other row, in ``rows`` (the centre and each lead's first site,
    and any row that is complex, reaches further or is stored out of
    order), forms the compact complex CSR ``remainder``, entries in their
    stored order, for ``csr_matvecs`` with one vector on complex x: the
    textbook product's arithmetic.  Its product overwrites those rows of
    the banded one.  scipy's arithmetic can leave the rows of a CSR built
    out of order unsorted; such a row is summed in its stored order."""
    n, indptr, indices, data = scaled.shape[0], scaled.indptr, scaled.indices, scaled.data
    row = np.repeat(np.arange(n), np.diff(indptr))
    offset = indices - row
    fits = (np.abs(offset) <= 1) & (data.imag == 0)
    fits[1:] &= (indices[1:] > indices[:-1]) | (row[1:] != row[:-1])
    is_band = np.ones(n, dtype=bool)
    is_band[row[~fits]] = False
    in_band = is_band[row]
    diagonals = np.zeros((3, n))
    diagonals[offset[in_band] + 1, indices[in_band]] = data.real[in_band]
    kept = np.flatnonzero(diagonals.any(axis=1))
    band = (
        2 * n,
        2 * n,
        kept.size,
        2 * n,
        (2 * (kept - 1)).astype(indices.dtype),
        np.repeat(diagonals[kept], 2, axis=1),
    )
    rows = np.flatnonzero(~is_band)
    remainder_ptr = np.concatenate(([0], np.cumsum(np.diff(indptr)[rows])))
    remainder = (
        rows.size,
        n,
        1,
        remainder_ptr.astype(indptr.dtype),
        indices[~in_band],
        data[~in_band],
    )
    return band, rows, remainder


def propagate(H: Hamiltonian, psi0: np.ndarray, t: float) -> np.ndarray:
    """Evolved state exp(-iHt) psi0, valid for Hermitian and
    non-Hermitian H alike (no unitarity assumption, no renormalization).
    A state or time that is not finite raises ``PhysicsError``."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (H.dim,):
        raise PhysicsError(
            f"state dimension {psi0.shape} does not match Hamiltonian dim {H.dim}"
        )
    if not (t >= 0 and np.isfinite(t)):
        raise PhysicsError(f"propagation time must be finite and nonnegative, got {t}")
    if not np.isfinite(psi0).all():
        raise PhysicsError("state to propagate must be finite in every entry")
    if t == 0:
        return psi0.copy()
    phase, _, coeffs, kernel = _chebyshev_plan(H, float(t))
    if coeffs is None:
        return phase * psi0
    # the kernels add scaled x to a zeroed result, without scipy's dispatch
    from scipy.sparse._sparsetools import csr_matvecs, dia_matvec

    band, rows, remainder = kernel
    phi_prev = np.array(psi0)  # a contiguous copy: the buffers below are overwritten
    phi, y, tmp = np.zeros_like(phi_prev), np.empty_like(phi_prev), np.empty_like(phi_prev)
    r = np.empty(rows.size, dtype=complex)
    # each state beside the float64 view the band reads, made once: a view
    # per product would cost about 1.5% of a figure 3a run
    prev, cur = (phi_prev, phi_prev.view(np.float64)), (phi, phi.view(np.float64))
    y_view = y.view(np.float64)

    def product(x, x_view, out, out_view):  # out = scaled x
        out.fill(0)
        dia_matvec(*band, x_view, out_view)
        r.fill(0)
        csr_matvecs(*remainder, x, r)
        out[rows] = r

    product(*prev, *cur)
    acc = coeffs[0] * phi_prev + coeffs[1] * phi
    for coeff in coeffs[2:]:
        # prev, cur = cur, 2 scaled cur - prev; acc += coeff * cur.  y + y is the
        # textbook 2.0 * y bit for bit: the complex product with 2 + 0i differs
        # only at -0, which a row sum from +0 never is.  The scalar stays the
        # first operand: numpy's SIMD complex multiply fuses differently for
        # cur * coeff, which moves the last bits.
        product(*cur, y, y_view)
        np.add(y, y, out=y)
        np.subtract(y, prev[0], out=prev[0])
        prev, cur = cur, prev
        np.multiply(coeff, cur[0], out=tmp)
        np.add(acc, tmp, out=acc)
    return phase * acc


def visibility(p: np.ndarray, eta: int = 1) -> float:
    """Contrast of neighboring odd channels:
    |p_{2 eta + 1} - p_{2 eta - 1}| / (p_{2 eta + 1} + p_{2 eta - 1}).

    Raises when both probabilities together sit below ``_VISIBILITY_FLOOR``
    -- every chain is off-resonant there and the contrast is not well
    defined.
    """
    lo, hi = 2 * eta - 1, 2 * eta + 1
    if eta < 1 or hi >= len(p):
        raise PhysicsError(f"eta={eta} outside the available channel range")
    total = p[lo] + p[hi]
    if total <= _VISIBILITY_FLOOR:
        raise PhysicsError(
            f"visibility not well defined: p_{lo} + p_{hi} = {total:.3e} <= {_VISIBILITY_FLOOR}"
        )
    return float(abs(p[hi] - p[lo]) / total)


def stop_time(net: NetworkSpec, spec: WavePacketSpec) -> float:
    """Base estimate of the scattering completion time of an incoming
    packet: (|N_c| + 4 sigma + N) / v_g with v_g = 2 |J| sin k.

    The margin covers the packet tails plus the center traversal;
    ``run_experiment`` extends past this estimate until the outgoing
    packets have cleanly left the junction region.  A packet that is not
    incoming (``incident_wave_vector``) raises ``PhysicsError``.
    """
    J = net.lead.J
    if incident_wave_vector(J, spec.k) != spec.k:
        raise PhysicsError(
            "packet group velocity points away from the scattering center "
            f"(J={J}, k={spec.k}); use the opposite sign of k for an incoming packet"
        )
    margin = 4.0 * spec.sigma + net.center.n_sites
    return (abs(spec.center_site) + margin) / group_velocity(J, spec.k)


def _edge_probability(prob: np.ndarray, net: NetworkSpec, sites: slice) -> float:
    """Largest per-lead probability over ``sites`` of every lead: ``[:5]``
    next to the junctions, ``[-5:]`` at the truncated far ends (where
    re-reflection is a finite-lead artifact)."""
    return float(net.leads(prob)[:, sites].sum(axis=-1).max())


def _schedule(stride: float, t_max: float, n_steps: int):
    """(step, time) of each step of a run from 0 up to ``t_max``: strides
    of ``stride``, their times accumulated, then one last step that ends
    at exactly t_max.  The last step comes once the next stride would
    reach t_max, and at the latest as step ``n_steps`` = ceil(t_max /
    stride), however the accumulated time rounds: a run stores at most
    n_steps + 1 snapshots, its budget, and every step is positive."""
    t = 0.0
    for _ in range(n_steps - 1):
        if t + stride >= t_max:
            break
        t += stride
        yield stride, t
    yield t_max - t, t_max


def run_experiment(
    net: NetworkSpec,
    packet: WavePacketSpec,
    cfg: PropagatorConfig = DEFAULT_CONFIG,
) -> TrajectoryRecord:
    """Full wave-packet experiment: inject, propagate with snapshots,
    stop once scattering has finished, and sum up channel probabilities.

    The stop check runs from the base ``stop_time`` estimate onward: the
    run ends when every lead holds less than ``FINISH_THRESHOLD``
    probability within 5 sites of its junction, or at ``t_max``.  The
    record's ``warnings`` notes a run that ends at t_max, and one whose
    probability has reached the truncated far ends, since whatever follows
    is a finite-lead artifact; nothing is printed or raised as a Python
    warning (``cli.main`` prints them).  A snapshot whose squared norm
    overflows the float range, as on an amplifying network, raises
    ``NumericalError`` naming its time.  A packet that does not fit its
    lead or is not incoming (``stop_time``), and a run that would store
    more than ``_MAX_SNAPSHOT_VALUES`` snapshot values, raise
    ``PhysicsError`` before the network is assembled.

    The snapshots go into one float64 array of the run's budget, ceil(t_max
    / stride) + 1 rows of the network dimension, allocated once: each
    snapshot's |psi|^2 is written into its row in place (the bits of
    ``np.abs(psi) ** 2``), rows the run never reaches are never touched,
    and the record's ``site_probabilities`` is the view of the written
    rows, from whose last row the record derives the final channel and
    centre probabilities.
    """
    _require_fit(net, packet)
    t_base = stop_time(net, packet)
    stride = cfg.snapshot_stride if cfg.snapshot_stride is not None else t_base / 60.0
    t_max = cfg.t_max if cfg.t_max is not None else 3.0 * t_base
    n_snapshots = np.ceil(t_max / stride) + 1.0
    # an int compared with a Python float stays exact: a lead length beyond
    # the float range is refused here, not overflowed
    if net.dim > float(_MAX_SNAPSHOT_VALUES / n_snapshots):
        raise PhysicsError(
            f"snapshot stride {stride:.6g} up to t_max {t_max:.6g} stores {n_snapshots:.3g} "
            f"snapshots of {net.dim} values, more than the cap of {_MAX_SNAPSHOT_VALUES:,}"
        )
    psi = init_gaussian(net, packet)
    network = assemble_network(net)

    probs = np.empty((int(n_snapshots), net.dim))
    times: list[float] = []
    norms: list[float] = []
    notes: list[str] = []

    # snapshot 0 is the packet itself, then one per step of the schedule
    steps = itertools.chain([(0.0, 0.0)], _schedule(stride, t_max, len(probs) - 1))
    for n, (step, t) in enumerate(steps):
        if n:
            psi = propagate(network, psi, step)
        # each |psi_j|^2 is at most norm^2, so a finite norm^2 keeps every
        # square below finite: an amplifying network stops here, not in numpy
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(psi))
        if not math.isfinite(norm * norm):
            raise NumericalError(
                f"snapshot at t={t:.6g} has state norm {norm:.6g}, whose square overflows "
                "the float range"
            )
        prob = probs[n]
        np.abs(psi, out=prob)
        np.square(prob, out=prob)
        times.append(t)
        norms.append(norm)
        if n and t + 1e-9 >= t_base and _edge_probability(prob, net, np.s_[:5]) < FINISH_THRESHOLD:
            break
    else:
        notes.append(
            f"t_max={t_max:.6g} reached with {_edge_probability(prob, net, np.s_[:5]):.3e} "
            "probability still near the junctions; scattering unfinished"
        )

    leakage = _edge_probability(prob, net, np.s_[-5:])
    if leakage > FINISH_THRESHOLD:
        notes.append(
            f"probability {leakage:.3e} within 5 sites of a truncated lead end at "
            f"t={t:.6g}; results may carry finite-lead artifacts"
        )

    return TrajectoryRecord(
        times=np.asarray(times),
        site_probabilities=probs[: n + 1],
        norms=np.asarray(norms),
        final_state=psi,
        network=net,
        warnings=tuple(notes),
    )
