import numpy as np
import pytest

import scatterlab as sl


def _ssh(v, w=4.0, cells=20):
    return sl.center_matrix(sl.SSHCenter(v=v, w=w, cells=cells))


K = np.pi / 2


def test_topological_resonance_images_geometric_series():
    sol = sl.solve_multichannel(_ssh(2.0), J=-0.1, mu=0.0, k=K)
    t2 = sol.transmittance
    assert abs(t2[0] - 36 / 49) < 1e-3
    assert abs(sol.reflectance - 1 / 49) < 1e-3
    assert abs(t2[2] / t2[0] - 0.25) < 1e-3
    assert np.max(t2[1::2]) < 1e-3 * t2[0]


def test_trivial_phase_reflects():
    sol = sl.solve_multichannel(_ssh(6.0), J=-0.1, mu=0.0, k=K)
    assert sol.reflectance > 0.99
    assert sol.reflectance == pytest.approx(0.9980037927518628, abs=1e-9)
    # dominant residual transmission is direct tunneling into channel 2,
    # of size (2J/v)^2
    t2 = sol.transmittance
    assert np.argmax(t2) == 1
    assert t2[1] == pytest.approx(1.1088931030576e-3, rel=1e-6)
    assert np.max(t2) < 2e-3


def test_deep_gap_weak_coupling_total_reflection():
    for J, r_bound, t_bound in ((1e-2, 2e-5, 4e-3), (1e-3, 2e-7, 4e-4)):
        sol = sl.solve_multichannel(_ssh(6.0), J=J, mu=0.0, k=K)
        assert abs(sol.r + 1.0) < r_bound
        assert np.max(np.abs(sol.t)) < t_bound


def test_continuity_identity_including_gain_loss():
    nh = sl.center_matrix(sl.NonHermitianSSHCenter(40.0, 2.0, 10.0, 4))
    for center, mu in ((_ssh(2.0), 0.3), (_ssh(6.0), -1.0), (nh, 37.0)):
        for k in (0.3, K, 2.8):
            sol = sl.solve_multichannel(center, J=-0.25, mu=mu, k=k)
            assert abs((sol.t[0] - sol.r) - 1.0) < 1e-12


def test_flux_conserved_for_random_hermitian_centers():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = rng.integers(2, 12)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        center = a + a.conj().T
        for _ in range(5):
            k = rng.uniform(0.05, np.pi - 0.05)
            mu = rng.uniform(-2, 2)
            J = -(10.0 ** rng.uniform(-2, 0))
            sol = sl.solve_multichannel(center, J=J, mu=mu, k=k)
            assert abs(sol.flux_error) < 1e-10


def test_even_channel_suppression_scales_with_coupling():
    t_full = sl.solve_multichannel(_ssh(2.0), J=-0.1, mu=0.0, k=K).t
    t_half = sl.solve_multichannel(_ssh(2.0), J=-0.05, mu=0.0, k=K).t
    assert abs(t_half[1]) <= 0.6 * abs(t_full[1])


def test_odd_channel_ratio_approaches_minus_q():
    sol = sl.solve_multichannel(_ssh(2.0), J=-0.01, mu=0.0, k=K)
    assert abs(sol.t[2] / sol.t[0] + 0.5) < 0.02


@pytest.mark.parametrize("k", [0.0, np.pi, -0.2, 3.5])
def test_rejects_band_edge_wave_vector(k):
    with pytest.raises(sl.PhysicsError):
        sl.solve_multichannel(_ssh(2.0), J=-0.1, mu=0.0, k=k)
    with pytest.raises(sl.PhysicsError):
        sl.two_lead_solve(_ssh(2.0), 1, 1.0, 0.0, k)


def test_singular_system_flagged():
    # 1x1 gain center tuned so the lead boundary term cancels exactly
    center = np.array([[2.0j]])
    with pytest.raises(sl.NumericalError):
        sl.solve_multichannel(center, J=-1.0, mu=0.0, k=K)


def test_degenerate_pair_warning():
    on_pair = sl.solve_multichannel(_ssh(2.0), J=-0.1, mu=0.0, k=K)
    assert on_pair.warnings  # hybridized zero modes split by ~1e-6 << J^2
    off_pair = sl.solve_multichannel(_ssh(6.0), J=-0.1, mu=0.0, k=K)
    assert not off_pair.warnings


def test_two_lead_single_site_perfect_transmission():
    center = np.array([[0.0]])
    # mu equal to the level makes the whole chain uniform: perfect
    # transmission at every k
    for k in (0.4, K, 2.3):
        r, t = sl.two_lead_solve(center, 1, 1.0, 0.0, k)
        assert abs(r) < 1e-12
        assert abs(t) == pytest.approx(1.0, abs=1e-12)
    # with the incident energy on the level (mu = -2 cos k) the impurity
    # closed form |t|^2 = 4 J^2 sin^2 k / (4 J^2 sin^2 k + (lambda - mu)^2)
    # reduces to sin^2 k, so r = 0 only at k = pi/2
    for k in (0.4, K, 2.3):
        mu = -2.0 * 1.0 * np.cos(k)
        r, t = sl.two_lead_solve(center, 1, 1.0, mu, k)
        assert abs(t) ** 2 == pytest.approx(np.sin(k) ** 2, abs=1e-12)
        assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-12)
    r, _ = sl.two_lead_solve(center, 1, 1.0, -2.0 * np.cos(K), K)
    assert abs(r) < 1e-12


def test_two_lead_resonance_for_any_coupling_strength():
    center = _ssh(2.0)
    mu = float(np.linalg.eigvalsh(center)[25].real)
    for J in (0.3, 1.0, 3.0, -1.0):
        r, _ = sl.two_lead_solve(center, 1, J, mu, K)
        assert abs(r) ** 2 < 1e-10


def test_two_lead_resonant_at_dense_eigenvalue():
    center = _ssh(2.0)
    vals = np.linalg.eigvalsh(center)
    r, t = sl.two_lead_solve(center, 1, 1.0, float(vals[10]), K)
    assert abs(r) ** 2 < 1e-6
    assert abs(t) == pytest.approx(1.0, abs=1e-6)


def test_two_lead_off_resonance_reflects():
    center = _ssh(2.0)
    vals = np.linalg.eigvalsh(center)
    mid = 0.5 * float(vals[25] + vals[26])
    r, _ = sl.two_lead_solve(center, 1, 1.0, mid, K)
    assert abs(r) ** 2 > 0.5
    assert abs(r) ** 2 == pytest.approx(0.842301492918935, abs=1e-9)


def test_mu_scan_resonances_sit_on_visible_eigenvalues():
    center = _ssh(2.0)
    scan = sl.mu_scan(center, alpha=1, J=1.0, k=K, mu_range=(-7.0, 7.0), resolution=1e-3)
    assert len(scan.resonances) >= 30
    vals, weights = sl.resonant_eigenvalues(center, 1)
    for mu_star, r2 in zip(scan.resonances, scan.resonance_reflectance):
        assert r2 < 1e-8
        i = int(np.argmin(np.abs(vals - mu_star)))
        assert abs(vals[i] - mu_star) < 1e-3
        assert weights[i] > 1e-12


def test_mu_scan_gain_loss_center():
    center = sl.center_matrix(sl.NonHermitianSSHCenter(40.0, 2.0, 10.0, 4))
    scan = sl.mu_scan(center, alpha=1, J=1.0, k=K, mu_range=(30.0, 50.0), resolution=1e-3)
    assert len(scan.resonances) == 4
    exact = np.linalg.eigvals(center)
    exact = np.sort(exact.real[exact.real > 0])
    np.testing.assert_allclose(sorted(scan.resonances), exact, atol=1e-6)
    # the strong-dimerization formula carries a few-percent-of-a-site error
    spec = sl.nh_spectrum(40.0, 2.0, 10.0, 4)
    analytic = np.sort([lv.real_energy for lv in spec.real_levels()])
    assert np.max(np.abs(np.sort(scan.resonances) - analytic)) < 0.03


def test_mu_scan_empty_window():
    scan = sl.mu_scan(_ssh(2.0), alpha=1, J=1.0, k=K, mu_range=(8.0, 9.0), resolution=1e-2)
    assert scan.resonances == ()
    assert scan.reflectance.min() > 0.9


def test_mu_scan_reports_dark_states():
    # site basis eigenstates: |2> has no weight on the attachment site 1
    center = np.diag([1.0, 2.0]).astype(complex)
    scan = sl.mu_scan(center, alpha=1, J=1.0, k=K, mu_range=(0.0, 3.0), resolution=1e-3)
    assert len(scan.resonances) == 1
    assert scan.resonances[0] == pytest.approx(1.0, abs=1e-6)
    assert scan.dark_states == (2.0,)
    # on the dark level itself r is that of the center without it
    r_dark, _ = sl.two_lead_solve(center, 1, 1.0, 2.0, K)
    r_reduced, _ = sl.two_lead_solve(np.array([[1.0]]), 1, 1.0, 2.0, K)
    assert r_dark == pytest.approx(r_reduced, abs=1e-12)
    assert r_reduced == pytest.approx(-0.2 - 0.4j, abs=1e-12)


@pytest.mark.parametrize("alpha", [0, 3, -1])
def test_resonant_eigenvalues_rejects_site_outside_center(alpha):
    # alpha = 0 would read site N through vecs[-1]; alpha = N + 1 an IndexError
    with pytest.raises(sl.PhysicsError, match=rf"attachment site {alpha} outside \[1, 2\]"):
        sl.resonant_eigenvalues(np.diag([1.0, 2.0]), alpha)


def test_two_lead_singular_at_attachment_site_raises():
    # a loss level at mu - 2iJ cancels the lead self-energy 2J e^{ik} at
    # k = pi/2: the singular direction sits on alpha, so r is undefined
    with pytest.raises(sl.NumericalError):
        sl.two_lead_solve(np.array([[-2.0j]]), 1, 1.0, 0.0, K)


def test_mu_scan_input_validation():
    with pytest.raises(sl.PhysicsError):
        sl.mu_scan(_ssh(2.0), 1, 1.0, K, (1.0, 1.0), 1e-3)
    with pytest.raises(sl.PhysicsError):
        sl.mu_scan(_ssh(2.0), 1, 1.0, K, (0.0, 1.0), 0.0)


def test_eigenfunction_from_transmissions_images_edge_state():
    sol = sl.solve_multichannel(_ssh(2.0), J=-0.1, mu=0.0, k=K)
    vec = sl.eigenfunction_from_transmissions(sol)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    edge = sl.edge_state_amplitudes(0.5, 20).embedded()
    edge = edge / np.linalg.norm(edge)
    assert abs(np.vdot(edge, vec)) > 0.995


def test_eigenfunction_from_transmissions_gain_loss_profile():
    center = sl.center_matrix(sl.NonHermitianSSHCenter(40.0, 2.0, 10.0, 4))
    vals, vecs = np.linalg.eig(center)
    order = np.argsort(vals.real)
    lam, eigvec = vals[order[4]], vecs[:, order[4]]  # lowest positive level
    sol = sl.solve_multichannel(center, J=-0.01, mu=float(lam.real), k=K)
    vec = sl.eigenfunction_from_transmissions(sol)

    prof = np.abs(vec[0::2]) ** 2
    prof /= prof.max()
    eig_prof = np.abs(eigvec[0::2]) ** 2
    eig_prof /= eig_prof.max()
    # weak coupling images the true eigenvector almost perfectly ...
    assert np.max(np.abs(prof - eig_prof)) < 1e-2
    # ... while the sinusoidal closed form is itself a few-percent
    # approximation at v/w = 20
    kappa = np.pi / 5
    s2 = np.sin(kappa * np.arange(1, 5)) ** 2
    s2 /= s2.max()
    assert np.max(np.abs(prof - s2) / s2) < 0.08


def test_eigenfunction_from_transmissions_rejects_off_resonance():
    sol = sl.solve_multichannel(_ssh(6.0), J=-0.1, mu=0.0, k=K)
    with pytest.raises(sl.PhysicsError):
        sl.eigenfunction_from_transmissions(sol)
