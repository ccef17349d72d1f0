import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import scatterlab as sl
from scatterlab import cli

K = np.pi / 2


def _small_net(v=2.0, w=4.0, cells=4, J=-0.1, mu=0.0, length=60):
    return sl.NetworkSpec(
        center=sl.SSHCenter(v=v, w=w, cells=cells),
        lead=sl.LeadSpec(J=J, mu=mu, length=length),
    )


def _packet(center_site=-30, sigma=6.0, k=K):
    return sl.WavePacketSpec(center_site=center_site, sigma=sigma, k=k)


def test_gaussian_packet_unit_norm_and_peak():
    net = sl.NetworkSpec(
        center=sl.SSHCenter(2.0, 4.0, 20), lead=sl.LeadSpec(J=-0.1, length=200)
    )
    psi = sl.init_gaussian(net, sl.WavePacketSpec(center_site=-100, sigma=20.0, k=K))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    peak = int(np.argmax(np.abs(psi)))
    assert tuple(labels[peak] for labels in net.labels()) == ("input", 0, 100)
    assert np.abs(psi[: net.center.n_sites]).max() == 0.0


def test_gaussian_plane_wave_limit():
    # the widest packet the fit rule |N_c| + 4 sigma < L allows is locally a
    # plane wave e^{ikj}: compare the 201 sites within 100 of its center
    net = _small_net(length=2000)
    psi = sl.init_gaussian(net, sl.WavePacketSpec(center_site=-1000, sigma=240.0, k=0.7))
    lead = net.leads(psi)[0]
    j = -np.arange(1.0, 2001.0)  # input offset o holds physical site -o
    near = np.abs(j + 1000) <= 100
    plane = np.exp(1j * 0.7 * j[near])
    plane /= np.linalg.norm(plane)
    window = lead[near] / np.linalg.norm(lead[near])
    assert abs(np.vdot(plane, window)) > 0.999


# A non-finite packet width or wave vector, or a non-finite custom entry,
# is refused by its spec, naming the field; past the spec it fails for
# another reason: numpy's "cannot convert float NaN to integer", a packet
# "pointing away", a Gershgorin rectangle that is not finite.
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: sl.WavePacketSpec(-20, np.nan, K), "WavePacketSpec.sigma must be finite"),
        (lambda: sl.WavePacketSpec(-20, np.inf, K), "WavePacketSpec.sigma must be finite"),
        (lambda: sl.WavePacketSpec(-20, 3.0, np.nan), "WavePacketSpec.k must be finite"),
        (lambda: sl.WavePacketSpec(-20, 3.0, -np.inf), "WavePacketSpec.k must be finite"),
        (lambda: sl.CustomCenter([[np.nan, 1], [1, 0]]), "CustomCenter.matrix must be finite"),
        (lambda: sl.CustomCenter([[0, 1], [1, 1j * np.inf]]), "CustomCenter.matrix must be finite"),
    ],
    ids=["sigma-nan", "sigma-inf", "k-nan", "k-inf", "custom-nan", "custom-inf"],
)
def test_specs_refuse_non_finite_packet_and_custom_input(make, message):
    with pytest.raises(sl.PhysicsError, match=message):
        make()


def test_gaussian_zero_momentum_is_real_positive():
    net = _small_net()
    psi = sl.init_gaussian(net, sl.WavePacketSpec(center_site=-30, sigma=5.0, k=0.0))
    lead = net.leads(psi)[0]
    assert np.all(lead.imag == 0)
    assert np.all(lead.real > 0)


def test_gaussian_overflow_rejected():
    net = _small_net(length=60)
    with pytest.raises(sl.PhysicsError):
        sl.init_gaussian(net, sl.WavePacketSpec(center_site=-50, sigma=6.0, k=K))


def test_run_experiment_refuses_a_packet_moving_away(monkeypatch):
    # at J > 0 the incoming packet has k < 0: k = pi/2 moves away
    calls = []
    monkeypatch.setattr(sl.dynamics, "assemble_network", calls.append)
    with pytest.raises(sl.PhysicsError, match="away from the scattering center"):
        sl.run_experiment(_small_net(J=0.1), _packet())
    assert calls == []


def test_rabi_half_period():
    v = 0.7
    H = sl.Hamiltonian(sp.csr_matrix(np.array([[0.0, v], [v, 0.0]], dtype=complex)))
    psi = sl.propagate(H, np.array([1.0, 0.0]), np.pi / (2 * v))
    target = np.array([0.0, -1.0j])
    assert abs(np.vdot(target, psi)) == pytest.approx(1.0, abs=1e-9)


def test_propagate_matches_dense_spectral_evolution():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(200, 200)) + 1j * rng.normal(size=(200, 200))
    H = sl.Hamiltonian(sp.csr_matrix(a + a.conj().T))
    psi0 = rng.normal(size=200) + 1j * rng.normal(size=200)
    psi0 /= np.linalg.norm(psi0)
    w, v = np.linalg.eigh(H.matrix.toarray())
    for t in (1.0, 12.5, 50.0):
        oracle = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))
        psi = sl.propagate(H, psi0, t)
        assert np.max(np.abs(psi - oracle)) < 1e-8


def test_propagate_preserves_norm_hermitian():
    net = _small_net()
    H = sl.assemble_network(net)
    psi = sl.init_gaussian(net, _packet())
    for t in (3.0, 77.0, 431.0):
        assert np.linalg.norm(sl.propagate(H, psi, t)) == pytest.approx(1.0, abs=1e-8)


def test_propagate_gain_loss_matches_adaptive_integration():
    net = sl.NetworkSpec(
        center=sl.NonHermitianSSHCenter(v=4.0, w=2.0, gamma=1.0, cells=2),
        lead=sl.LeadSpec(J=-0.1, mu=0.0, length=40),
    )
    H = sl.assemble_network(net)
    assert H.dim <= 400 and abs(H.matrix - H.matrix.getH()).max() > 0
    psi0 = sl.init_gaussian(net, sl.WavePacketSpec(center_site=-18, sigma=4.0, k=K))
    t_end = 40.0
    sol = solve_ivp(
        lambda _, y: -1j * H.matrix.dot(y),
        (0.0, t_end),
        psi0,
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    psi = sl.propagate(H, psi0, t_end)
    assert np.max(np.abs(psi - sol.y[:, -1])) < 1e-6


def test_propagate_deterministic_distance_time_equivalence():
    # fiber-array propagation in z is the identical operation in t
    net = _small_net()
    H = sl.assemble_network(net)
    psi = sl.init_gaussian(net, _packet())
    a = sl.propagate(H, psi, 123.0)
    b = sl.propagate(H, psi, 123.0)
    assert np.array_equal(a, b)


def test_propagate_input_validation():
    net = _small_net()
    H = sl.assemble_network(net)
    psi = sl.init_gaussian(net, _packet())
    with pytest.raises(sl.PhysicsError):
        sl.propagate(H, psi, -1.0)
    with pytest.raises(sl.PhysicsError):
        sl.propagate(H, psi[:-1], 1.0)
    for t in (np.nan, np.inf):
        with pytest.raises(sl.PhysicsError, match="finite"):
            sl.propagate(H, psi, t)
    # one bad entry would spread over the packet's rows, and the banded
    # kernel's stored zeros would carry 0 * nan into rows CSR never touches
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        broken = psi.copy()
        broken[50] = bad
        with pytest.raises(sl.PhysicsError, match="finite"):
            sl.propagate(H, broken, 1.0)
    assert np.array_equal(sl.propagate(H, psi, 0.0), psi)


def _gain_loss_network():
    return sl.assemble_network(
        sl.NetworkSpec(
            center=sl.NonHermitianSSHCenter(v=4.0, w=2.0, gamma=1.0, cells=2),
            lead=sl.LeadSpec(J=-0.1, mu=0.0, length=40),
        )
    )


def _custom(matrix):
    return sl.Hamiltonian(sp.csr_matrix(np.array(matrix, dtype=complex)))


def _unbalanced_loss_network():
    # loss on both centre sites moves the rectangle's centre off the real
    # axis: the lead rows carry a complex diagonal and leave the real band
    return sl.assemble_network(
        sl.NetworkSpec(
            center=sl.CustomCenter(np.array([[-0.5j, 2], [2, -0.5j]])),
            lead=sl.LeadSpec(J=-0.1, mu=0.0, length=40),
        )
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "make, t",
    [
        (_gain_loss_network, 0.5),
        (_gain_loss_network, 40.0),
        (lambda: _custom([[1j]]), 5.0),
        # the complex shift carries the e^-50 decay exactly; a real-only shift
        # would leave it to cancellation between series terms of order e^50
        (lambda: _custom([[-10j, 1], [1, -10j]]), 5.0),
        (lambda: _custom([[0, 1], [0, 0]]), 5.0),
        (lambda: _custom([[0, 1], [-1, 0]]), 5.0),
        (_unbalanced_loss_network, 40.0),
    ],
    ids=["gain-loss-ssh-short", "gain-loss-ssh-long", "gain", "uniform-loss", "nilpotent",
         "skew", "unbalanced-loss"],
)
def test_propagate_non_hermitian_matches_dense_expm(make, t):
    H = make()
    assert abs(H.matrix - H.matrix.getH()).max() > 0
    rng = np.random.default_rng(11)
    psi0 = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    oracle = expm(-1j * t * H.matrix.toarray()) @ psi0
    psi = sl.propagate(H, psi0, t)
    assert np.linalg.norm(psi - oracle) <= 1e-10 * np.linalg.norm(oracle)


@pytest.mark.parametrize(
    "matrix, t", [([[0, 1], [1, 0]], 1e7), ([[0, 1], [-1, 0]], 3e6)], ids=["hermitian", "skew"]
)
def test_propagate_order_beyond_cap_raises(matrix, t):
    H = _custom(matrix)
    with pytest.raises(sl.NumericalError, match="step budget"):
        sl.propagate(H, np.array([1.0, 0.0]), t)


def test_order_beyond_cap_is_reported_in_short_form():
    # no errstate here: the order estimate 1.09e308 is finite, and the
    # message gives it in %.3g form rather than as a 309-digit integer
    H = _custom([[0, 8e307], [8e307, 0]])
    with pytest.raises(sl.NumericalError) as err:
        sl.propagate(H, np.array([1.0, 0.0]), 1.0)
    assert str(err.value) == (
        "Chebyshev order 1.09e+308 exceeds the step budget; split the time interval"
    )


def _textbook_propagate(H, psi0, t):
    """The Chebyshev recurrence as written in the literature, one fresh
    array per operation, on the plan ``propagate`` uses."""
    phase, scaled, coeffs, _ = sl.dynamics._chebyshev_plan(H, t)
    phi_prev, phi = psi0, scaled.dot(psi0)
    acc = coeffs[0] * phi_prev + coeffs[1] * phi
    for coeff in coeffs[2:]:
        phi_prev, phi = phi, 2.0 * scaled.dot(phi) - phi_prev
        acc += coeff * phi
    return phase * acc


def _figure_step(fig, **lead):
    """Network, packet and default snapshot stride of a figure's run; the
    keyword arguments replace fields of its lead."""
    ((_, cfg),) = cli.figure_configs(fig)
    net = sl.NetworkSpec(cfg.center, dataclasses.replace(cfg.lead, **lead))
    return net, cfg.packet, sl.stop_time(net, cfg.packet) / 60.0


def _complex_hopping_step():
    """A Hermitian 6-site ring with complex hoppings (a flux through it) on
    figure 3a's lead and packet: a complex operator."""
    ((_, cfg),) = cli.figure_configs("3a")
    ring = np.diag(np.full(5, 4.0 * np.exp(0.4j)), 1)
    ring[0, 5] = 3.0j
    net = sl.NetworkSpec(sl.CustomCenter(ring + ring.conj().T), cfg.lead)
    return net, cfg.packet, sl.stop_time(net, cfg.packet) / 60.0


def _unbalanced_loss_step():
    """Figure 3a's chain with loss -0.5i on all 40 centre sites, on its lead
    and packet: the rectangle's centre leaves the real axis, so every lead
    row carries a complex diagonal and every row runs in the remainder."""
    ((_, cfg),) = cli.figure_configs("3a")
    center = sl.CustomCenter(sl.center_matrix(cfg.center) - 0.5j * np.eye(cfg.center.n_sites))
    net = sl.NetworkSpec(center, cfg.lead)
    return net, cfg.packet, sl.stop_time(net, cfg.packet) / 60.0


def _unsorted_network(net):
    """The network of ``net`` plus an on-site 0.37 on the output leads, 0.5
    on the centre and a long-range bond from the first centre site to the
    input lead's far end, as a CSR whose output-lead rows list their
    columns in descending order, every other row ascending.  scipy's
    arithmetic on such a CSR lists a row's new entries first, then its
    stored ones reversed.  So the shift by the centre of the spectrum
    brings the output-lead rows back ascending, band rows, and leaves each
    input-lead row j (no diagonal entry) as j, j + 1, j - 1: a row sum
    whose last term is not the band's."""
    m = sl.assemble_network(net).matrix
    sites = net.leads(np.arange(net.dim))
    onsite = np.zeros(net.dim)
    onsite[: net.center.n_sites] = 0.5
    onsite[sites[1:]] = 0.37
    far = sites[0, -1]
    bond = sp.csr_matrix(([0.01, 0.01], ([0, far], [far, 0])), shape=m.shape)
    m = (m + sp.diags(onsite) + bond).tocsr()
    row = np.repeat(np.arange(net.dim), np.diff(m.indptr))
    key = np.where(np.isin(row, sites[1:]), -m.indices, m.indices)
    order = np.lexsort((key, row))
    return sl.Hamiltonian(sp.csr_matrix((m.data[order], m.indices[order], m.indptr), m.shape))


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


@pytest.mark.parametrize(
    "step, network, min_order",
    [
        (lambda: _figure_step("3a"), sl.assemble_network, 150),
        (lambda: _figure_step("3d"), sl.assemble_network, 150),
        (lambda: _figure_step("6a"), sl.assemble_network, 1_000),
        (lambda: _figure_step("3a", mu=0.37), sl.assemble_network, 150),
        (_complex_hopping_step, sl.assemble_network, 150),
        (lambda: _figure_step("3a"), _unsorted_network, 150),
        (_unbalanced_loss_step, sl.assemble_network, 150),
    ],
    ids=["fig3a-hermitian", "fig3d", "fig6a-gain-loss", "fig3a-lead-mu", "complex-hopping",
         "unsorted-csr", "unbalanced-loss"],
)
def test_propagate_is_the_textbook_recurrence_bit_for_bit(step, network, min_order):
    # the in-place loop and the banded kernel must not move a single bit of
    # the figures: checked from the packet and from the state three strides
    # on.  Lead chains, with a diagonal (lead mu) or without, run on the real
    # band, Hermitian or gain/loss; the junction rows, the complex hopping's
    # centre rows and rows stored out of order in the complex CSR remainder,
    # and with unbalanced loss every row
    net, packet, stride = step()
    H = network(net)
    _, _, coeffs, _ = sl.dynamics._chebyshev_plan(H, stride)
    # each series is a figure's full stride, past order 100 and, with gain
    # and loss, past 1,000: the loop must keep the textbook's bits over a
    # series as long as the figures run, not only over a short one
    assert len(coeffs) > min_order
    psi = sl.init_gaussian(net, packet)
    for _ in range(2):
        kept = psi.copy()
        new = sl.propagate(H, psi, stride)
        assert np.array_equal(_bits(new), _bits(_textbook_propagate(H, psi, stride)))
        assert np.array_equal(_bits(psi), _bits(kept))  # the input is never written
        psi = sl.propagate(H, sl.propagate(H, new, stride), stride)


# x and the top order m of each case: one stride's R and the plan's order
# bound on figures 3a-d and 6a, then the smallest subnormal, tiny and
# moderate arguments, a float zero of J_0, and a float zero of J_3, where
# the recurrence's denominator at order 4 rounds to 0
@pytest.mark.parametrize(
    "x, m",
    [
        (111.83333333333331, 211),
        (130.16666666666666, 236),
        (166.83333333333331, 286),
        (185.16666666666666, 311),
        (659.5666666666667, 1532),
        (5e-324, 60),
        (1e-300, 60),
        (1e-12, 60),
        (0.5, 60),
        (2.404825557695773, 60),
        (9.76102312998167, 60),
        (30.0, 100),
    ],
    ids=["fig3a", "fig3b", "fig3c", "fig3d", "fig6a", "subnormal", "1e-300", "1e-12", "0.5",
         "J0-zero", "J3-zero", "30"],
)
def test_bessel_weights_match_a_40_digit_evaluation(x, m):
    # the recurrence measures 1.4e-16 at worst here; scipy's jv, which the
    # plan used before, is 1.5e-14 off at figure 6a's R
    with mpmath.workdps(40):
        ref = [float(mpmath.besselj(n, mpmath.mpf(x))) for n in range(m + 1)]
    assert np.abs(sl.dynamics._bessel_j(m, x) - ref).max() <= 2.5e-16


@pytest.mark.parametrize("t", [5e-324, 1e-300], ids=["subnormal", "1e-300"])
def test_propagate_over_a_tiny_step_is_finite_and_quiet(t):
    # filterwarnings = error: a warning from the plan or the loop fails this
    net, packet, _ = _figure_step("3a")
    psi0 = sl.init_gaussian(net, packet)
    psi = sl.propagate(sl.assemble_network(net), psi0, t)
    assert np.isfinite(psi).all()
    assert np.abs(psi - psi0).max() <= 1e-15


def test_propagate_where_the_bessel_recurrence_meets_a_zero():
    # R = t = 9.76102312998167 is a float zero of J_3; the recurrence's
    # denominator at order 4 rounds to 0 there, and the step still matches
    # dense expm
    H = _custom([[0, 1], [1, 0]])
    t = 9.76102312998167
    oracle = expm(-1j * t * H.matrix.toarray())[:, 0]
    assert np.abs(sl.propagate(H, np.array([1.0, 0.0]), t) - oracle).max() <= 1e-11


def test_propagate_reads_a_strided_state_like_a_contiguous_one():
    H = _gain_loss_network()
    rng = np.random.default_rng(3)
    psi0 = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    strided = np.repeat(psi0, 2)[::2]
    assert not strided.flags.c_contiguous
    ref = _textbook_propagate(H, psi0, 40.0)
    assert np.array_equal(_bits(sl.propagate(H, strided, 40.0)), _bits(ref))


@pytest.mark.parametrize("fig", ["3a", "6a"])
def test_banded_and_remainder_kernels_are_the_sparse_product(fig):
    # propagate calls scipy's private kernels directly; a scipy release that
    # moves or changes one must fail here, not shift the figures' digits.  The
    # real band runs on the float view of the state, the complex remainder on
    # the state itself, for a Hermitian (3a) and a gain/loss (6a) network
    from scipy.sparse._sparsetools import csr_matvecs, dia_matvec

    net, _, stride = _figure_step(fig)
    _, scaled, _, (band, rows, remainder) = sl.dynamics._chebyshev_plan(
        sl.assemble_network(net), stride
    )
    rng = np.random.default_rng(7)
    x = rng.normal(size=net.dim) + 1j * rng.normal(size=net.dim)
    ref = scaled @ x
    y, r = np.zeros(net.dim, dtype=complex), np.zeros(rows.size, dtype=complex)
    dia_matvec(*band, x.view(np.float64), y.view(np.float64))
    csr_matvecs(*remainder, x, r)
    assert np.array_equal(_bits(r), _bits(ref[rows]))
    band_rows = np.ones(net.dim, dtype=bool)
    band_rows[rows] = False
    assert np.array_equal(_bits(y[band_rows]), _bits(ref[band_rows]))
    assert not y[rows].any()  # the remainder's rows hold nothing in the band


@pytest.mark.parametrize("mu, offsets", [(0.0, [-2, 2]), (0.37, [-2, 0, 2])])
def test_fig3a_remainder_is_its_junction_rows(mu, offsets):
    # only the centre and each lead's first site leave the band: 81 of the
    # 8,240 rows of A, run as 81 complex rows.  The main diagonal is kept
    # only when the lead has an on-site term
    net, _, stride = _figure_step("3a", mu=mu)
    _, _, _, (band, rows, remainder) = sl.dynamics._chebyshev_plan(
        sl.assemble_network(net), stride
    )
    junctions = np.union1d(np.arange(net.center.n_sites), net.leads(np.arange(net.dim))[:, 0])
    assert np.array_equal(rows, junctions)
    assert rows.size == 81 and remainder[0] * remainder[2] == 81
    assert band[4].tolist() == offsets


def test_rows_out_of_order_go_to_the_remainder():
    # a band-shaped row stored out of order must not be summed in the
    # band's column order: the input lead's rows here
    net, _, stride = _figure_step("3a")
    _, scaled, _, (_, rows, _) = sl.dynamics._chebyshev_plan(_unsorted_network(net), stride)
    sites = net.leads(np.arange(net.dim))
    j = sites[0, 1]
    assert scaled.indices[scaled.indptr[j] : scaled.indptr[j + 1]].tolist() == [j, j + 1, j - 1]
    assert np.isin(sites[0], rows).all()
    assert not np.isin(sites[1:, 1:], rows).any()


def test_unbalanced_loss_runs_every_row_in_the_remainder():
    # the trade of one layout: a complex lead diagonal leaves no band row
    net, _, stride = _unbalanced_loss_step()
    _, _, _, (band, rows, _) = sl.dynamics._chebyshev_plan(sl.assemble_network(net), stride)
    assert band[2] == 0
    assert np.array_equal(rows, np.arange(net.dim))


def _figure_networks(fig):
    """(network, packet) of every dynamics run of a figure: one per panel,
    or one per q point of figure 5's sweep, built as ``run_q_sweep`` does."""
    ((_, cfg),) = cli.figure_configs(fig)
    sweep = cfg.sweep
    if sweep is None:
        return [(sl.NetworkSpec(cfg.center, cfg.lead), cfg.packet)]
    centers = [sl.SSHCenter(q * sweep.w, sweep.w, sweep.cells) for q in sweep.q_values if q != 1]
    return [(sl.NetworkSpec(center, cfg.lead), cfg.packet) for center in centers]


@pytest.mark.parametrize(
    "fig, real",
    [("3a", True), ("3b", True), ("3c", True), ("3d", True), ("5", True)]
    + [(f"6{panel}", False) for panel in "abcd"],
)
def test_hermitian_figures_take_the_real_kernel(fig, real):
    # a Hermitian figure network has a real scaled operator, a gain/loss one
    # has not; yet on both, the lead chains are real after the shift and run
    # on the real band, and only the 2N + 1 junction rows (the centre and
    # each lead's first site) go to the complex remainder
    for net, packet in _figure_networks(fig):
        stride = sl.stop_time(net, packet) / 60.0
        _, scaled, _, (band, rows, _) = sl.dynamics._chebyshev_plan(
            sl.assemble_network(net), stride
        )
        assert scaled.data.imag.any() != real
        assert band[5].dtype == np.float64
        junctions = np.union1d(np.arange(net.center.n_sites), net.leads(np.arange(net.dim))[:, 0])
        assert rows.size == 2 * net.center.n_sites + 1
        assert np.array_equal(rows, junctions)


@pytest.mark.parametrize("fig", ["3a", "3b", "3c", "3d", "5", "6a", "6b", "6c", "6d"])
def test_every_chebyshev_coefficient_is_exactly_real_or_imaginary(fig):
    # the phase (-i)^n is exact: numpy's (-1j) ** n leaves about 1e-15 in
    # the part that should be 0 at every order from 100 on.  Each part is
    # tested for 0 itself, since a product of two tiny parts can underflow
    for net, packet in _figure_networks(fig):
        stride = sl.stop_time(net, packet) / 60.0
        _, _, coeffs, _ = sl.dynamics._chebyshev_plan(sl.assemble_network(net), stride)
        assert ((coeffs.real == 0) | (coeffs.imag == 0)).all()


def test_propagate_refuses_a_half_width_beyond_the_float_range():
    H = _custom([[0, 1e308], [1e308, 0]])
    with np.errstate(all="ignore"), pytest.raises(sl.NumericalError, match="overflows"):
        sl.propagate(H, np.array([1.0, 0.0]), 1.0)


@pytest.mark.parametrize(
    "matrix",
    [[[1e308]], [[0, 1e308], [1e308, 0]], [[1e308j]], [[0, 1e308j], [-1e308j, 0]]],
    ids=["onsite", "bond", "gain", "imaginary-bond"],
)
def test_plan_refuses_an_overflowing_rectangle_without_a_warning(matrix):
    # no errstate here: a RuntimeWarning from the Gershgorin bounds fails it
    H = _custom(matrix)
    with pytest.raises(sl.NumericalError, match="Gershgorin rectangle is not finite"):
        sl.propagate(H, np.eye(H.dim, dtype=complex)[0], 1.0)


def test_propagation_plan_does_not_leak_between_networks():
    cfg = sl.PropagatorConfig(snapshot_stride=40.0)
    net_a, net_b = _small_net(v=2.0, cells=2, length=40), _small_net(v=3.0, cells=2, length=40)
    packet = _packet(center_site=-20, sigma=4.0)
    sl.run_experiment(net_a, packet, cfg)
    after_a = sl.run_experiment(net_b, packet, cfg).final_state
    sl.dynamics._chebyshev_plan.cache_clear()
    fresh = sl.run_experiment(net_b, packet, cfg).final_state
    assert np.array_equal(after_a, fresh)


def test_channel_probabilities_before_scattering():
    net = _small_net()
    psi = sl.init_gaussian(net, _packet())
    p = net.leads(np.abs(psi) ** 2).sum(axis=-1)
    assert p[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(p[1:] == 0.0)


def test_visibility_edge_cases():
    assert sl.visibility(np.array([0.0, 0.5, 0.0, 0.0])) == 1.0
    assert sl.visibility(np.array([0.0, 0.2, 0.0, 0.1])) == pytest.approx(1 / 3)
    with pytest.raises(sl.PhysicsError):
        sl.visibility(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(sl.PhysicsError):
        sl.visibility(np.array([0.0, 0.3, 0.0, 0.3]), eta=2)


def test_stop_time_base_estimate():
    net = sl.NetworkSpec(
        center=sl.SSHCenter(2.0, 4.0, 20), lead=sl.LeadSpec(J=-0.1, length=200)
    )
    pk = sl.WavePacketSpec(center_site=-100, sigma=20.0, k=K)
    # (|N_c| + 4 sigma + N) / (2 |J| sin k) = (100 + 80 + 40) / 0.2
    assert sl.stop_time(net, pk) == pytest.approx(1100.0, rel=1e-12)
    doubled = sl.NetworkSpec(
        center=sl.SSHCenter(2.0, 4.0, 20), lead=sl.LeadSpec(J=-0.2, length=200)
    )
    assert sl.stop_time(doubled, pk) == pytest.approx(550.0, rel=1e-12)


def test_stop_time_uses_dispersion_slope():
    net = _small_net(J=-0.37)
    pk = _packet(k=1.1)
    h = 1e-6
    v_g = abs(sl.dispersion(-0.37, 0.0, 1.1 + h) - sl.dispersion(-0.37, 0.0, 1.1 - h)) / (2 * h)
    expected = (30 + 4 * 6 + 8) / v_g
    assert sl.stop_time(net, pk) == pytest.approx(expected, rel=1e-6)


def test_run_experiment_cross_validates_steady_solver():
    # the semi-infinite edge-state picture (dark even channels) needs the
    # edge pair split well below the resonance width: 1.5e-3 at 12 cells,
    # against 0.38 at 4 cells
    net = _small_net(cells=12, length=80)
    rec = sl.run_experiment(net, _packet())
    sol = sl.solve_multichannel(sl.center_matrix(net.center), J=-0.1, mu=0.0, k=K)
    steady = np.concatenate(([sol.reflectance], sol.transmittance))
    assert np.max(np.abs(rec.channel_probabilities - steady)) < 0.01
    assert np.max(rec.channel_probabilities[2::2]) < 1e-3


def _steady_probabilities(net, mu):
    """|r|^2 and each |t_l|^2 of ``net``'s geometry at the band centre."""
    hc = sl.center_matrix(net.center)
    if net.alpha is None:
        sol = sl.solve_multichannel(hc, J=net.lead.J, mu=mu, k=K)
        return np.concatenate(([sol.reflectance], sol.transmittance))
    r, t = sl.two_lead_solve(hc, net.alpha, net.lead.J, mu, K)
    return np.array([abs(r) ** 2, abs(t) ** 2])


@pytest.mark.parametrize(
    "center, J, alpha, mu, tol",
    [
        (sl.NonHermitianSSHCenter(40.0, 2.0, 10.0, 4), 1.0, 1, 36.387, 1e-3),
        (sl.NonHermitianSSHCenter(40.0, 2.0, 10.0, 4), 1.0, 1, 45.0, 1e-3),
        (sl.NonHermitianSSHCenter(8.0, 2.0, 1.0, 2), 0.5, None, 6.928203230275509, 2e-4),
        (sl.NonHermitianSSHCenter(8.0, 2.0, 1.0, 2), 0.5, None, 3.0, 2e-4),
    ],
    ids=["fig7f-centre-off-resonance", "fig7f-centre-far", "multichannel-level",
         "multichannel-off-level"],
)
def test_steady_solves_match_incoming_packets_at_positive_J(center, J, alpha, mu, tol):
    # for J > 0 the incoming packet has k = -pi/2; a steady solve at k = pi/2
    # must describe the same, retarded, problem.  Solving the time-reversed
    # one (gain and loss swapped) missed p_0 by 0.36 on the fig 7f centre
    # and by up to 0.08 on the multichannel network.
    net = sl.NetworkSpec(center, sl.LeadSpec(J=J, mu=mu, length=400), alpha=alpha)
    rec = sl.run_experiment(net, sl.WavePacketSpec(center_site=-200, sigma=40.0, k=-K))
    assert not rec.warnings
    steady = _steady_probabilities(net, mu)
    assert np.max(np.abs(rec.channel_probabilities - steady)) < tol


def test_run_experiment_record_contents():
    rec = sl.run_experiment(_small_net(), _packet())
    assert np.all(np.diff(rec.times) > 0)
    assert rec.site_probabilities.shape == (len(rec.times), 8 + 9 * 60)
    assert np.max(np.abs(rec.norms - 1.0)) < 1e-8
    assert rec.center_probability < 1e-6
    assert not rec.warnings
    # probability is accounted for: channels + center = total
    total = rec.channel_probabilities.sum() + rec.center_probability
    assert total == pytest.approx(rec.norms[-1] ** 2, abs=1e-10)
    hist = rec.channel_history()
    np.testing.assert_allclose(hist[-1], rec.channel_probabilities, atol=1e-12)
    assert hist[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module", params=["3a", "6a"])
def figure_record(request):
    cfg = dict(cli.figure_configs(request.param))[f"fig{request.param}"]
    net = sl.NetworkSpec(center=cfg.center, lead=cfg.lead)
    return net, sl.run_experiment(net, cfg.packet, cfg.propagator)


def test_figure_record_holds_each_snapshot_once(figure_record):
    net, rec = figure_record
    snapshots = rec.site_probabilities
    # the written rows of one array, the last one the final state's
    assert snapshots.base is not None and snapshots.base.shape[1:] == (net.dim,)
    assert snapshots[-1].tobytes() == (np.abs(rec.final_state) ** 2).tobytes()
    p = net.leads(np.abs(rec.final_state) ** 2).sum(axis=-1)
    assert rec.channel_probabilities.tobytes() == p.tobytes()


def test_channel_history_is_numpys_lead_sum(figure_record):
    # one sum for the history and the final readout: the last row is the
    # record's channel probabilities bit for bit.  numpy's pairwise sum over
    # the 200 offsets stays within 4.5e-16 of the exactly rounded sum of
    # each lead; a sequential sum over them was 1.1e-15 off on figure 3a
    net, rec = figure_record
    history = rec.channel_history()
    assert history[-1].tobytes() == rec.channel_probabilities.tobytes()
    leads = net.leads(rec.site_probabilities)
    exact = [math.fsum(lead) for lead in leads.reshape(-1, leads.shape[-1]).tolist()]
    assert np.max(np.abs(history.ravel() - exact)) <= 4.5e-16


def test_run_experiment_two_lead_geometry():
    center = sl.SSHCenter(2.0, 4.0, 2)
    vals = np.linalg.eigvalsh(sl.center_matrix(center))
    mid = 0.5 * float(vals[2] + vals[3])
    net = sl.NetworkSpec(
        center=center,
        lead=sl.LeadSpec(J=-1.0, mu=mid, length=120),
        alpha=1,
    )
    rec = sl.run_experiment(net, sl.WavePacketSpec(center_site=-60, sigma=12.0, k=K))
    r, t = sl.two_lead_solve(sl.center_matrix(center), 1, -1.0, mid, K)
    assert rec.channel_probabilities[0] == pytest.approx(abs(r) ** 2, abs=0.01)
    assert rec.channel_probabilities[1] == pytest.approx(abs(t) ** 2, abs=0.01)


def test_run_experiment_gain_loss_norm_not_renormalized():
    level = sl.nh_spectrum(8.0, 2.0, 1.0, 2)[0]
    net = sl.NetworkSpec(
        center=sl.NonHermitianSSHCenter(8.0, 2.0, 1.0, 2),
        lead=sl.LeadSpec(J=-0.1, mu=level.real_energy, length=60),
    )
    rec = sl.run_experiment(net, _packet())
    assert abs(rec.norms[-1] - 1.0) > 1e-3


def test_run_experiment_snapshot_budget(monkeypatch):
    # (ceil(t_max / stride) + 1) snapshots of dim values each: 11 x dim here
    net, cfg = _small_net(), sl.PropagatorConfig(snapshot_stride=5.0, t_max=50.0)
    dim = sl.assemble_network(net).dim
    monkeypatch.setattr(sl.dynamics, "_MAX_SNAPSHOT_VALUES", 11 * dim - 1)
    calls = []
    monkeypatch.setattr(sl.dynamics, "propagate", lambda *args: calls.append(args))
    with pytest.raises(sl.PhysicsError, match="stores 11 snapshots"):
        sl.run_experiment(net, _packet(), cfg)
    assert calls == []
    monkeypatch.undo()
    monkeypatch.setattr(sl.dynamics, "_MAX_SNAPSHOT_VALUES", 11 * dim)
    with pytest.warns(UserWarning, match="unfinished"):
        rec = sl.run_experiment(net, _packet(), cfg)
    assert len(rec.times) == 11


def test_run_ending_at_t_max_keeps_its_snapshot_budget():
    # 1,712 accumulated strides fall about 1e-9 short of t_max: the last of
    # them must still end on t_max, not leave a 1e-9 step past the budget
    # at a time that prints like the one before it
    net = sl.NetworkSpec(sl.SSHCenter(1e-3, 1e-3, 1), sl.LeadSpec(J=-1e-3, length=60))
    cfg = sl.PropagatorConfig(snapshot_stride=14.33064088758873, t_max=24534.057199551906)
    with pytest.warns(UserWarning, match="unfinished"):
        rec = sl.run_experiment(net, _packet(center_site=-25), cfg)
    assert len(rec.times) == np.ceil(cfg.t_max / cfg.snapshot_stride) + 1 == 1713
    assert rec.times[-1] == cfg.t_max
    assert len({"%.12g" % t for t in rec.times}) == 1713
    assert rec.site_probabilities.shape == (1713, net.dim)


@given(
    stride=st.floats(1e-3, 1e3),
    n=st.integers(1, 3000),
    skew=st.sampled_from([0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-9, -1e-9, 0.5]),
)
@example(stride=14.33064088758873, n=1712, skew=0.0)
def test_schedule_ends_at_t_max_within_the_budget(stride, n, skew):
    t_max = stride * n * (1.0 + skew)
    budget = int(np.ceil(t_max / stride))
    steps = list(sl.dynamics._schedule(stride, t_max, budget))
    assert 1 <= len(steps) <= budget
    # strides of `stride`, their times accumulated from 0, then a positive
    # last step that ends at exactly t_max
    t = 0.0
    for step, time in steps[:-1]:
        t += stride
        assert (step, time) == (stride, t) and t < t_max
    last, end = steps[-1]
    assert end == t_max and last == t_max - t and last > 0
    # the accumulated times round by at most half an ulp of t_max per stride
    assert last <= stride + budget * np.spacing(t_max)


@pytest.mark.parametrize(
    "length, packet, message",
    [
        (10**19, _packet(), "more than the cap"),
        (60, _packet(center_site=-50), "overflows the 60-site input lead"),
        # an int beyond the float range, compared exactly instead of overflowed
        (60, _packet(center_site=-(10**400)), "overflows the 60-site input lead"),
        (60, _packet(k=0.0), "zero group velocity"),
        # sin k rounds to about 1e-16 here, not to 0
        (60, _packet(k=np.pi), "zero group velocity"),
        (60, _packet(k=-np.pi), "zero group velocity"),
        (60, _packet(k=2 * np.pi), "zero group velocity"),
    ],
    ids=["snapshot-budget", "packet-fit", "packet-fit-beyond-float", "stop-time", "stop-time-pi",
         "stop-time-minus-pi", "stop-time-2pi"],
)
def test_run_experiment_checks_preconditions_before_assembly(monkeypatch, length, packet, message):
    calls = []
    monkeypatch.setattr(sl.dynamics, "assemble_network", calls.append)
    with pytest.raises(sl.PhysicsError, match=message):
        sl.run_experiment(_small_net(length=length), packet)
    assert calls == []


def test_run_experiment_warns_of_probability_at_a_lead_end():
    # on 30-site leads the outgoing waves reach the truncated ends by the
    # time the junctions have emptied
    net = sl.NetworkSpec(center=sl.SSHCenter(2.0, 4.0, 2), lead=sl.LeadSpec(J=-0.1, length=30))
    with pytest.warns(UserWarning, match="truncated lead end") as caught:
        rec = sl.run_experiment(net, _packet(center_site=-12, sigma=4.0))
    assert len(caught) == 1
    assert rec.warnings == (
        "probability 2.413e-02 within 5 sites of a truncated lead end at t=160; "
        "results may carry finite-lead artifacts",
    )


def test_run_experiment_t_max_warning():
    cfg = sl.PropagatorConfig(t_max=50.0)
    with pytest.warns(UserWarning, match="unfinished"):
        rec = sl.run_experiment(_small_net(), _packet(), cfg)
    assert rec.times[-1] == pytest.approx(50.0)
    assert rec.warnings


@pytest.mark.parametrize(
    "field, value",
    [("t_max", -1.0), ("t_max", 0.0), ("t_max", np.nan),
     ("snapshot_stride", 0.0), ("snapshot_stride", -2.0), ("snapshot_stride", np.nan)],
)
def test_propagator_config_rejects_nonpositive_times(field, value):
    with pytest.raises(sl.PhysicsError, match=f"{field} must be positive"):
        sl.PropagatorConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("snapshot_stride", np.inf), ("t_max", np.inf), ("snapshot_stride", np.nan)],
    ids=["stride-inf", "t_max-inf", "stride-nan"],
)
def test_propagator_config_refuses_non_finite_times(field, value):
    # an infinite stride used to pass and leave a one-snapshot schedule,
    # which run_experiment indexed past with a bare IndexError
    with pytest.raises(sl.PhysicsError, match=f"{field} must be positive and finite, got {value}"):
        sl.PropagatorConfig(**{field: value})


@pytest.mark.parametrize(
    "kwargs, message",
    [({"center_site": 0}, "must be a negative input-lead site"),
     ({"sigma": 0.0}, "sigma must be positive"),
     # 2 sigma^2 underflows to 0: the envelope divided by zero, with NaN after
     ({"sigma": 1e-200}, r"sigma=1e-200 is so small that 2 sigma\^2 is 0")],
    ids=["center-site-0", "sigma-0", "sigma-underflow"],
)
def test_packet_spec_rejects_a_packet_off_the_input_lead_or_without_width(kwargs, message):
    with pytest.raises(sl.PhysicsError, match=message):
        _packet(**kwargs)
