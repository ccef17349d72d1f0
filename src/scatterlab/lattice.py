"""Tight-binding scattering networks: centers, leads, and assembly.

A scattering network is a finite cluster (the *center*) with uniform
tight-binding chains (the *leads*) attached to its sites.
``NetworkSpec.alpha`` picks one of two geometries:

* multichannel (``alpha=None``) -- one output lead per center site, plus
  one input lead sharing the attachment site of output lead 1;
* two-lead (``alpha`` an int) -- a single input and a single output lead,
  both attached to center site ``alpha``.

``SiteRegistry.leads`` is the one place that maps a lead to its global
indices; assembly, packet injection, channel sums and site labels all
read through it.

All specs are immutable; assembled Hamiltonians are safe for shared
concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
import scipy.sparse as sp

from .errors import PhysicsError

REGION_CENTER = "center"
REGION_INPUT = "input"
REGION_OUTPUT = "output"


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
        if self.length < 1:
            raise PhysicsError(f"lead length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description of a full scattering network.

    ``alpha`` picks the geometry, named as in ``two_lead_solve``: ``None``
    is multichannel (output lead l attaches at center site l, the input
    lead at site 1), an int is two-lead (the input and the single output
    lead both attach at center site ``alpha``).
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
        """1-based center site of each lead in ``SiteRegistry.leads`` row
        order: the input lead first, then each output lead."""
        if self.alpha is None:
            return (1, *range(1, self.center.n_sites + 1))
        return (self.alpha, self.alpha)


@dataclass(frozen=True)
class SiteRegistry:
    """Site layout of an assembled network's basis: ``n_center`` center
    sites, then ``n_outputs + 1`` leads of ``lead_length`` sites each, the
    input lead before output leads 1..n_outputs.

    ``leads`` is the only code that knows where a lead lives; ``labels``
    names every global index by writing through it.
    """

    n_center: int
    lead_length: int
    n_outputs: int

    @property
    def dim(self) -> int:
        return self.n_center + (self.n_outputs + 1) * self.lead_length

    def leads(self, values: np.ndarray) -> np.ndarray:
        """View of the last, per-site axis of ``values`` as shape
        ``(..., n_outputs + 1, lead_length)``: row 0 is the input lead, row l
        output lead l, each running from the junction (offset 1) outward."""
        shape = (*values.shape[:-1], self.n_outputs + 1, self.lead_length)
        return values[..., self.n_center :].reshape(shape)

    def labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Region, channel and 1-based offset of every global index:
        ``("center", 0, j)`` for center site j, ``("input", 0, j)`` for the
        input-lead site at physical position -j, ``("output", l, j)`` for
        site j of output lead l."""
        region = np.full(self.dim, REGION_CENTER, dtype=object)
        channel = np.zeros(self.dim, dtype=int)
        offset = np.zeros(self.dim, dtype=int)
        offset[: self.n_center] = np.arange(1, self.n_center + 1)
        self.leads(region)[0] = REGION_INPUT
        self.leads(region)[1:] = REGION_OUTPUT
        self.leads(channel)[:] = np.arange(self.n_outputs + 1)[:, None]
        self.leads(offset)[:] = np.arange(1, self.lead_length + 1)
        return region, channel, offset


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Sparse complex Hamiltonian.  ``assemble_network`` attaches the site
    ``registry`` that labels its basis and the ``spec`` it was built from;
    a bare matrix, as handed to ``propagate``, needs neither.  Immutable
    after construction."""

    matrix: sp.csr_matrix
    registry: SiteRegistry | None = None
    spec: NetworkSpec | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def center_matrix(spec: CenterSpec) -> np.ndarray:
    """Dense complex matrix of a scattering center."""
    if isinstance(spec, CustomCenter):
        return np.array(spec.matrix, dtype=complex, copy=True)
    n = spec.n_sites
    m = np.zeros((n, n), dtype=complex)
    # Odd bonds (2m-1, 2m) carry v; even bonds (2m, 2m+1) carry w.
    for cell in range(1, spec.cells + 1):
        i, j = 2 * cell - 2, 2 * cell - 1
        m[i, j] += spec.v
        m[j, i] += spec.v
    for cell in range(1, spec.cells):
        i, j = 2 * cell - 1, 2 * cell
        m[i, j] += spec.w
        m[j, i] += spec.w
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
    J, mu = net.lead.J, net.lead.mu
    reg = SiteRegistry(net.center.n_sites, net.lead.length, len(net.attachments) - 1)
    leads = reg.leads(np.arange(reg.dim))

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
        shape=(reg.dim, reg.dim),
    ).tocsr()
    mat.sum_duplicates()
    return Hamiltonian(matrix=mat, registry=reg, spec=net)


def dispersion(J: float, mu: float, k: float) -> float:
    """Lead band energy E(k) = 2 J cos k + mu for the stored signed J."""
    return 2.0 * J * np.cos(k) + mu


def group_velocity(J: float, k: float) -> float:
    """Magnitude of the lead group velocity |dE/dk| = 2 |J| sin k."""
    return 2.0 * abs(J) * abs(np.sin(k))
