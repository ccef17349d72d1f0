import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import scatterlab as sl

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
    H = sl.assemble_network(net)
    psi = sl.init_gaussian(H, sl.WavePacketSpec(center_site=-100, sigma=20.0, k=K))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    peak = int(np.argmax(np.abs(psi)))
    assert tuple(labels[peak] for labels in H.registry.labels()) == ("input", 0, 100)
    assert np.abs(psi[: H.registry.n_center]).max() == 0.0


def test_gaussian_plane_wave_limit():
    # the widest packet the fit rule |N_c| + 4 sigma < L allows is locally a
    # plane wave e^{ikj}: compare the 201 sites within 100 of its center
    H = sl.assemble_network(_small_net(length=2000))
    psi = sl.init_gaussian(H, sl.WavePacketSpec(center_site=-1000, sigma=240.0, k=0.7))
    lead = H.registry.leads(psi)[0]
    j = -np.arange(1.0, 2001.0)  # input offset o holds physical site -o
    near = np.abs(j + 1000) <= 100
    plane = np.exp(1j * 0.7 * j[near])
    plane /= np.linalg.norm(plane)
    window = lead[near] / np.linalg.norm(lead[near])
    assert abs(np.vdot(plane, window)) > 0.999


def test_gaussian_zero_momentum_is_real_positive():
    H = sl.assemble_network(_small_net())
    psi = sl.init_gaussian(H, sl.WavePacketSpec(center_site=-30, sigma=5.0, k=0.0))
    lead = H.registry.leads(psi)[0]
    assert np.all(lead.imag == 0)
    assert np.all(lead.real > 0)


def test_gaussian_overflow_rejected():
    H = sl.assemble_network(_small_net(length=60))
    with pytest.raises(sl.PhysicsError):
        sl.init_gaussian(H, sl.WavePacketSpec(center_site=-50, sigma=6.0, k=K))


def test_gaussian_warns_when_packet_moves_away():
    H = sl.assemble_network(_small_net(J=0.1))
    with pytest.warns(UserWarning, match="away from the scattering center"):
        sl.init_gaussian(H, _packet())


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
    H = sl.assemble_network(_small_net())
    psi = sl.init_gaussian(H, _packet())
    for t in (3.0, 77.0, 431.0):
        assert np.linalg.norm(sl.propagate(H, psi, t)) == pytest.approx(1.0, abs=1e-8)


def test_propagate_gain_loss_matches_adaptive_integration():
    net = sl.NetworkSpec(
        center=sl.NonHermitianSSHCenter(v=4.0, w=2.0, gamma=1.0, cells=2),
        lead=sl.LeadSpec(J=-0.1, mu=0.0, length=40),
    )
    H = sl.assemble_network(net)
    assert H.dim <= 400 and abs(H.matrix - H.matrix.getH()).max() > 0
    psi0 = sl.init_gaussian(H, sl.WavePacketSpec(center_site=-18, sigma=4.0, k=K))
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
    H = sl.assemble_network(_small_net())
    psi = sl.init_gaussian(H, _packet())
    a = sl.propagate(H, psi, 123.0)
    b = sl.propagate(H, psi, 123.0)
    assert np.array_equal(a, b)


def test_propagate_input_validation():
    H = sl.assemble_network(_small_net())
    psi = sl.init_gaussian(H, _packet())
    with pytest.raises(sl.PhysicsError):
        sl.propagate(H, psi, -1.0)
    with pytest.raises(sl.PhysicsError):
        sl.propagate(H, psi[:-1], 1.0)
    for t in (np.nan, np.inf):
        with pytest.raises(sl.PhysicsError, match="finite"):
            sl.propagate(H, psi, t)
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
    ],
    ids=["gain-loss-ssh-short", "gain-loss-ssh-long", "gain", "uniform-loss", "nilpotent",
         "skew"],
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
    H = sl.assemble_network(_small_net())
    psi = sl.init_gaussian(H, _packet())
    p = sl.channel_probabilities(psi, H.registry)
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
    level = sl.nh_spectrum(8.0, 2.0, 1.0, 2).level(0)
    net = sl.NetworkSpec(
        center=sl.NonHermitianSSHCenter(8.0, 2.0, 1.0, 2),
        lead=sl.LeadSpec(J=-0.1, mu=level.real_energy, length=60),
    )
    rec = sl.run_experiment(net, _packet())
    assert abs(rec.norms[-1] - 1.0) > 1e-3


def test_run_experiment_t_max_warning():
    cfg = sl.PropagatorConfig(t_max=50.0)
    with pytest.warns(UserWarning, match="unfinished"):
        rec = sl.run_experiment(_small_net(), _packet(), cfg)
    assert rec.final_time == pytest.approx(50.0)
    assert rec.warnings


@pytest.mark.parametrize(
    "field, value",
    [("t_max", -1.0), ("t_max", 0.0), ("t_max", np.nan),
     ("snapshot_stride", 0.0), ("snapshot_stride", -2.0), ("snapshot_stride", np.nan)],
)
def test_propagator_config_rejects_nonpositive_times(field, value):
    with pytest.raises(sl.PhysicsError, match=f"{field} must be positive"):
        sl.PropagatorConfig(**{field: value})
