"""Tight-binding scattering networks: centers, leads, and assembly.

A scattering network is a finite cluster (the *center*) with uniform
tight-binding chains (the *leads*) attached to its sites.  Two geometries
are supported:

* multichannel -- one output lead per center site, plus one input lead
  sharing the attachment site of output lead 1;
* two-lead -- a single input and a single output lead, both attached to
  one arbitrary center site.

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

    ``n_output_leads`` is either the center size N (multichannel geometry:
    output lead l attaches at center site l, the input lead attaches at
    ``input_attachment``, site 1 by default) or 1 (two-lead geometry: the
    single output lead shares the input's attachment site).
    """

    center: CenterSpec
    lead: LeadSpec
    n_output_leads: int | None = None
    input_attachment: int = 1

    def __post_init__(self) -> None:
        n = self.center.n_sites
        n_out = self.n_output_leads if self.n_output_leads is not None else n
        if n_out not in (n, 1):
            raise PhysicsError(
                f"n_output_leads must be {n} (multichannel) or 1 (two-lead), got {n_out}"
            )
        if not 1 <= self.input_attachment <= n:
            raise PhysicsError(
                f"input attachment site {self.input_attachment} outside [1, {n}]"
            )

    @property
    def n_outputs(self) -> int:
        return self.n_output_leads if self.n_output_leads is not None else self.center.n_sites

    @property
    def output_attachments(self) -> tuple[int, ...]:
        if self.n_outputs == 1:
            return (self.input_attachment,)
        return tuple(range(1, self.center.n_sites + 1))


class SiteRegistry:
    """Bijection between site labels ``(region, channel, offset)`` and
    global matrix indices.

    Regions and their 1-based offsets:

    * ``("center", 0, j)`` -- center site j in [1, N];
    * ``("input", 0, j)`` -- input-lead site at physical position -j;
    * ``("output", l, j)`` -- site j of output lead l >= 1.

    Global ordering is center first, then the input lead, then output
    leads in channel order; callers treat the ordering as opaque and go
    through this registry, whose ``leads`` is the per-lead accessor.
    """

    def __init__(
        self,
        n_center: int,
        lead_length: int = 0,
        output_attachments: tuple[int, ...] = (),
        input_attachment: int | None = None,
    ):
        self.n_center = int(n_center)
        self.lead_length = int(lead_length)
        self.output_attachments = tuple(int(a) for a in output_attachments)
        self.input_attachment = input_attachment
        self.n_outputs = len(self.output_attachments)
        self._has_input = input_attachment is not None
        n_leads = self.n_outputs + (1 if self._has_input else 0)
        self.dim = self.n_center + n_leads * self.lead_length

    @property
    def has_input(self) -> bool:
        return self._has_input

    def index(self, region: str, offset: int, channel: int = 0) -> int:
        L = self.lead_length
        if region == REGION_CENTER:
            if not 1 <= offset <= self.n_center:
                raise PhysicsError(f"center offset {offset} outside [1, {self.n_center}]")
            return offset - 1
        if not 1 <= offset <= L:
            raise PhysicsError(f"lead offset {offset} outside [1, {L}]")
        if region == REGION_INPUT:
            if not self._has_input:
                raise PhysicsError("registry has no input lead")
            return self.n_center + offset - 1
        if region == REGION_OUTPUT:
            if not 1 <= channel <= self.n_outputs:
                raise PhysicsError(f"output channel {channel} outside [1, {self.n_outputs}]")
            block = (1 if self._has_input else 0) + channel - 1
            return self.n_center + block * L + offset - 1
        raise PhysicsError(f"unknown region {region!r}")

    def site(self, index: int) -> tuple[str, int, int]:
        if not 0 <= index < self.dim:
            raise PhysicsError(f"global index {index} outside [0, {self.dim})")
        if index < self.n_center:
            return (REGION_CENTER, 0, index + 1)
        rest = index - self.n_center
        block, offset = divmod(rest, self.lead_length)
        if self._has_input:
            if block == 0:
                return (REGION_INPUT, 0, offset + 1)
            block -= 1
        return (REGION_OUTPUT, block + 1, offset + 1)

    def center_indices(self) -> np.ndarray:
        return np.arange(self.n_center)

    def input_indices(self) -> np.ndarray:
        if not self._has_input:
            raise PhysicsError("registry has no input lead")
        return np.arange(self.n_center, self.n_center + self.lead_length)

    def output_indices(self, channel: int) -> np.ndarray:
        start = self.index(REGION_OUTPUT, 1, channel)
        return np.arange(start, start + self.lead_length)

    def leads(self, values: np.ndarray) -> np.ndarray:
        """View of the last, per-site axis of ``values`` as shape
        ``(..., n_outputs + 1, lead_length)``: row 0 is the input lead, row l
        output lead l, each running from the junction (offset 1) outward."""
        if not self._has_input:
            raise PhysicsError("registry has no input lead")
        shape = (*values.shape[:-1], self.n_outputs + 1, self.lead_length)
        return values[..., self.n_center :].reshape(shape)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SiteRegistry(n_center={self.n_center}, lead_length={self.lead_length}, "
            f"n_outputs={self.n_outputs}, has_input={self._has_input})"
        )


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Sparse complex Hamiltonian plus the site registry that labels its
    basis.  Immutable after construction."""

    matrix: sp.csr_matrix
    registry: SiteRegistry
    spec: NetworkSpec | CenterSpec | None = field(default=None, repr=False)

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


def build_center(spec: CenterSpec) -> Hamiltonian:
    """Construct the center block as a standalone Hamiltonian."""
    reg = SiteRegistry(n_center=spec.n_sites)
    return Hamiltonian(matrix=sp.csr_matrix(center_matrix(spec)), registry=reg, spec=spec)


def assemble_network(net: NetworkSpec) -> Hamiltonian:
    """Assemble center + leads + junction bonds into one global matrix.

    Every lead is a uniform chain with hopping J and on-site mu; junction
    bonds of amplitude J connect each lead's innermost site to its
    attachment site on the center.
    """
    n = net.center.n_sites
    L = net.lead.length
    J, mu = net.lead.J, net.lead.mu
    reg = SiteRegistry(
        n_center=n,
        lead_length=L,
        output_attachments=net.output_attachments,
        input_attachment=net.input_attachment,
    )

    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []

    hc = center_matrix(net.center)
    ci, cj = np.nonzero(hc)
    rows.extend(ci.tolist())
    cols.extend(cj.tolist())
    vals.extend(hc[ci, cj].tolist())

    def add_chain(start: int) -> None:
        for off in range(L):
            if mu != 0.0:
                rows.append(start + off)
                cols.append(start + off)
                vals.append(mu)
        for off in range(L - 1):
            a, b = start + off, start + off + 1
            rows.extend((a, b))
            cols.extend((b, a))
            vals.extend((J, J))

    def add_junction(lead_end: int, center_site: int) -> None:
        c = center_site - 1
        rows.extend((lead_end, c))
        cols.extend((c, lead_end))
        vals.extend((J, J))

    add_chain(reg.index(REGION_INPUT, 1))
    add_junction(reg.index(REGION_INPUT, 1), net.input_attachment)
    for chan, attach in enumerate(net.output_attachments, start=1):
        start = reg.index(REGION_OUTPUT, 1, chan)
        add_chain(start)
        add_junction(start, attach)

    mat = sp.coo_matrix(
        (np.asarray(vals, dtype=complex), (rows, cols)), shape=(reg.dim, reg.dim)
    ).tocsr()
    mat.sum_duplicates()
    return Hamiltonian(matrix=mat, registry=reg, spec=net)


def dispersion(J: float, mu: float, k: float) -> float:
    """Lead band energy E(k) = 2 J cos k + mu for the stored signed J."""
    return 2.0 * J * np.cos(k) + mu


def group_velocity(J: float, k: float) -> float:
    """Magnitude of the lead group velocity |dE/dk| = 2 |J| sin k."""
    return 2.0 * abs(J) * abs(np.sin(k))
