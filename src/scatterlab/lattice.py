"""Tight-binding scattering networks: centers, leads, and assembly.

A scattering network is a finite cluster (the *center*) with uniform
tight-binding chains (the *leads*) attached to its sites.
``NetworkSpec.alpha`` picks one of two geometries, and only
``attachment_sites`` spells where each lead attaches, for assembly and
the steady solver alike: multichannel (``alpha=None``) has one output
lead per center site and the input lead at site 1, two-lead (``alpha``
an int) one input and one output lead, both at site ``alpha``.

An assembled network's basis holds the center sites first, then the
input lead, then output leads 1..n, each lead running from its junction
outward.  ``NetworkSpec.leads`` is the one place that maps a lead to its
global indices; assembly, packet injection, channel sums and site labels
all read through it.

A lead's plane wave e^{iqj} moves along j with group velocity
-2J sin q, so on the input lead (j < 0) the incident wave has
J sin q < 0.  ``incident_wave_vector`` alone picks it, for both engines.

All specs are immutable; assembled Hamiltonians are safe for shared
concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import PhysicsError

if TYPE_CHECKING:
    import scipy.sparse as sp

REGION_CENTER = "center"
REGION_INPUT = "input"
REGION_OUTPUT = "output"

# Cap on the sites of a dense centre matrix: 2,048 sites is 64 MiB per
# complex copy, where a figure needs at most 40.
_MAX_CENTER_SITES = 2_048


def _require_finite(spec, *names: str) -> None:
    for name in names:
        value = getattr(spec, name)
        if not np.isfinite(value):
            raise PhysicsError(f"{type(spec).__name__}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class SSHCenter:
    """Dimerized chain with alternating intracell (v) and intercell (w)
    hoppings, ``cells`` unit cells of two sites each.

    Topological for ``v < w`` (hosts an in-gap zero mode localized on the
    odd sublattice), trivial for ``v > w``.
    """

    v: float
    w: float
    cells: int

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise PhysicsError(f"cells must be >= 1, got {self.cells}")
        _require_finite(self, "v", "w")

    @property
    def n_sites(self) -> int:
        return 2 * self.cells

    @property
    def q(self) -> float:
        """Hopping ratio v/w controlling the edge-state localization."""
        if self.w == 0:
            raise PhysicsError("q = v/w undefined for w = 0")
        return self.v / self.w


@dataclass(frozen=True)
class NonHermitianSSHCenter:
    """SSH chain with staggered on-site gain and loss +/- i*gamma.

    Site m (1-based) carries the imaginary potential i*gamma*(-1)^m, so
    odd sites lose and even sites gain for gamma > 0.
    """

    v: float
    w: float
    gamma: float
    cells: int

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise PhysicsError(f"cells must be >= 1, got {self.cells}")
        _require_finite(self, "v", "w", "gamma")

    @property
    def n_sites(self) -> int:
        return 2 * self.cells


@dataclass(eq=False)
class CustomCenter:
    """Arbitrary square complex matrix used verbatim as the center.

    The stored matrix is a read-only copy of the input.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise PhysicsError(f"custom center matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise PhysicsError("custom center matrix must be at least 1x1")
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise PhysicsError(f"CustomCenter.matrix must be finite, got {m[i, j]} at [{i}][{j}]")
        m.setflags(write=False)
        self.matrix = m

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"CustomCenter(n_sites={self.n_sites})"


CenterSpec = Union[SSHCenter, NonHermitianSSHCenter, CustomCenter]


@dataclass(frozen=True)
class LeadSpec:
    """Uniform tight-binding chain: signed hopping J, on-site potential mu.

    ``length`` is the finite truncation used when the lead is materialized
    for dynamics; steady-state solves treat leads as semi-infinite and
    never materialize them.
    """

    J: float
    mu: float = 0.0
    length: int = 200

    def __post_init__(self) -> None:
        if self.J == 0:
            raise PhysicsError("lead hopping J must be nonzero")
        # the band spans mu +- 2|J|; its edges must be finite numbers
        if not np.isfinite(2.0 * abs(self.J) + abs(self.mu)):
            raise PhysicsError(
                f"lead band edge 2|J| + |mu| is not finite for J={self.J}, mu={self.mu}"
            )
        if self.length < 1:
            raise PhysicsError(f"lead length must be >= 1, got {self.length}")


def attachment_sites(n_sites: int, alpha: int | None) -> tuple[int, ...]:
    """1-based center site of each lead, the input lead first, then each
    output lead: ``(1, 1, 2, ..., n_sites)`` for multichannel
    (``alpha=None``), ``(alpha, alpha)`` for two-lead."""
    if alpha is None:
        return (1, *range(1, n_sites + 1))
    return (alpha, alpha)


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description of a full scattering network.

    ``alpha`` picks the geometry, named as in ``two_lead_solve``: ``None``
    is multichannel, an int is two-lead.  ``attachments`` gives each
    lead's center site, from ``attachment_sites``.

    The assembled basis has ``dim`` sites: the center sites, then
    ``n_outputs + 1`` leads of ``lead.length`` sites each, the input lead
    before output leads 1..n_outputs.  ``leads`` is the only code that
    knows where a lead lives; ``labels`` names every global index by
    writing through it.
    """

    center: CenterSpec
    lead: LeadSpec
    alpha: int | None = None

    def __post_init__(self) -> None:
        n = self.center.n_sites
        if self.alpha is not None and not 1 <= self.alpha <= n:
            raise PhysicsError(f"attachment site alpha={self.alpha} outside [1, {n}]")

    @property
    def attachments(self) -> tuple[int, ...]:
        """``attachment_sites`` of this geometry, in ``leads`` row order."""
        return attachment_sites(self.center.n_sites, self.alpha)

    @property
    def n_outputs(self) -> int:
        return self.center.n_sites if self.alpha is None else 1

    @property
    def dim(self) -> int:
        return self.center.n_sites + (self.n_outputs + 1) * self.lead.length

    def leads(self, values: np.ndarray) -> np.ndarray:
        """View of the last, per-site axis of ``values`` as shape
        ``(..., n_outputs + 1, lead.length)``: row 0 is the input lead, row l
        output lead l, each running from the junction (offset 1) outward."""
        shape = (*values.shape[:-1], self.n_outputs + 1, self.lead.length)
        return values[..., self.center.n_sites :].reshape(shape)

    def labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Region, channel and 1-based offset of every global index:
        ``("center", 0, j)`` for center site j, ``("input", 0, j)`` for the
        input-lead site at physical position -j, ``("output", l, j)`` for
        site j of output lead l."""
        n_center = self.center.n_sites
        region = np.full(self.dim, REGION_CENTER, dtype=object)
        channel = np.zeros(self.dim, dtype=int)
        offset = np.zeros(self.dim, dtype=int)
        offset[:n_center] = np.arange(1, n_center + 1)
        self.leads(region)[0] = REGION_INPUT
        self.leads(region)[1:] = REGION_OUTPUT
        self.leads(channel)[:] = np.arange(self.n_outputs + 1)[:, None]
        self.leads(offset)[:] = np.arange(1, self.lead.length + 1)
        return region, channel, offset


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Sparse complex Hamiltonian, immutable after construction.  A class
    rather than a bare matrix because ``propagate`` caches its expansion
    per Hamiltonian object, and a ``csr_matrix`` is unhashable."""

    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def center_matrix(spec: CenterSpec) -> np.ndarray:
    """Dense complex matrix of a scattering center; a center of more than
    ``_MAX_CENTER_SITES`` sites raises before any allocation."""
    n = spec.n_sites
    if n > _MAX_CENTER_SITES:
        raise PhysicsError(
            f"center of {n:,} sites exceeds the dense-matrix cap of {_MAX_CENTER_SITES:,}"
        )
    if isinstance(spec, CustomCenter):
        return np.array(spec.matrix, dtype=complex, copy=True)
    m = np.zeros((n, n), dtype=complex)
    # Odd bonds (2m-1, 2m) carry v, even bonds w: bond (i, i+1) of 0-based
    # rows has an even i for v.  += on zeros stores a -0.0 hopping as +0.0.
    for i in range(n - 1):
        t = spec.w if i % 2 else spec.v
        m[i, i + 1] += t
        m[i + 1, i] += t
    if isinstance(spec, NonHermitianSSHCenter):
        sites = np.arange(1, n + 1)
        m[np.diag_indices(n)] += 1j * spec.gamma * (-1.0) ** sites
    return m


def assemble_network(net: NetworkSpec) -> Hamiltonian:
    """Assemble center + leads + junction bonds into one global matrix.

    Every lead is a uniform chain with hopping J and on-site mu; junction
    bonds of amplitude J connect each lead's innermost site to its
    attachment site on the center.
    """
    import scipy.sparse as sp  # here, not at the top: steady runs never load it

    J, mu = net.lead.J, net.lead.mu
    leads = net.leads(np.arange(net.dim))

    hc = center_matrix(net.center)
    ci, cj = np.nonzero(hc)
    # Bonds (a, b): adjacent sites of each lead chain, then each lead's
    # innermost site and its attachment site; both directions carry J.
    a = np.concatenate((leads[:, :-1].ravel(), leads[:, 0]))
    b = np.concatenate((leads[:, 1:].ravel(), np.asarray(net.attachments) - 1))
    rows = [ci, a, b]
    cols = [cj, b, a]
    vals = [hc[ci, cj], np.full(2 * a.size, J, dtype=complex)]
    if mu != 0.0:
        rows.append(leads.ravel())
        cols.append(leads.ravel())
        vals.append(np.full(leads.size, mu, dtype=complex))

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(net.dim, net.dim),
    ).tocsr()
    return Hamiltonian(mat)


# The lead's band centre: there E = mu, the group velocity 2|J| is largest,
# and a two-lead reflection zero sits on a center eigenvalue at mu.
BAND_CENTRE_K = np.pi / 2


def dispersion(J: float, mu: float, k: float) -> float:
    """Lead band energy E(k) = 2 J cos k + mu for the stored signed J."""
    return 2.0 * J * np.cos(k) + mu


def group_velocity(J: float, k: float) -> float:
    """Magnitude of the lead group velocity |dE/dk| = 2 |J| sin k."""
    return 2.0 * abs(J) * abs(np.sin(k))


def incident_wave_vector(J: float, k: float) -> float:
    """The one of +-k with J sin q < 0, whose wave e^{iqj} travels toward
    the centre: k for J < 0, -k for J > 0.  Zero group velocity raises:
    J = 0, or k a multiple of pi, where sin k rounds to a few ulps of k."""
    if group_velocity(J, k) == 0 or abs(np.sin(k)) <= 4.0 * abs(k) * np.finfo(float).eps:
        raise PhysicsError(
            f"zero group velocity at J={J}, k={k}: the lead hopping J must be nonzero "
            "and k not a multiple of pi"
        )
    return -k if (J > 0) == (np.sin(k) > 0) else k
