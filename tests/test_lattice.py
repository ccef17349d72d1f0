import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatterlab as sl
from scatterlab.lattice import (
    REGION_CENTER,
    REGION_INPUT,
    REGION_OUTPUT,
    SiteRegistry,
)


def test_ssh_center_matrix_alternating_bonds():
    h = sl.center_matrix(sl.SSHCenter(v=2.0, w=4.0, cells=2))
    expected = np.array(
        [
            [0, 2, 0, 0],
            [2, 0, 4, 0],
            [0, 4, 0, 2],
            [0, 0, 2, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(h, expected)


def test_decoupled_dimer_limit_is_zero_matrix():
    h = sl.center_matrix(sl.SSHCenter(v=0.0, w=1.0, cells=1))
    np.testing.assert_array_equal(h, np.zeros((2, 2), dtype=complex))


def test_gain_loss_center_staggered_diagonal():
    h = sl.center_matrix(sl.NonHermitianSSHCenter(v=40.0, w=2.0, gamma=10.0, cells=4))
    diag = np.diag(h)
    np.testing.assert_array_equal(diag, [-10j, 10j, -10j, 10j, -10j, 10j, -10j, 10j])
    assert h[0, 1] == 40 and h[1, 0] == 40
    assert h[1, 2] == 2 and h[2, 1] == 2
    assert h[6, 7] == 40
    assert sl.build_center(sl.NonHermitianSSHCenter(40, 2, 10, 4)).hermitian is False


def test_center_rejects_zero_cells():
    with pytest.raises(sl.PhysicsError):
        sl.SSHCenter(v=1.0, w=2.0, cells=0)
    with pytest.raises(sl.PhysicsError):
        sl.NonHermitianSSHCenter(v=1.0, w=2.0, gamma=1.0, cells=0)


def test_custom_center_rejects_nonsquare():
    with pytest.raises(sl.PhysicsError):
        sl.CustomCenter(np.zeros((2, 3)))


def test_custom_center_copies_and_freezes():
    m = np.eye(2, dtype=complex)
    c = sl.CustomCenter(m)
    m[0, 0] = 99.0
    assert c.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        c.matrix[0, 0] = 5.0


def test_lead_spec_validation():
    with pytest.raises(sl.PhysicsError):
        sl.LeadSpec(J=0.0)
    with pytest.raises(sl.PhysicsError):
        sl.LeadSpec(J=1.0, length=0)


def test_assemble_multichannel_dimensions_and_hermiticity():
    # 40-site center, 40 output leads + 1 input lead, 200 sites each.
    net = sl.NetworkSpec(
        center=sl.SSHCenter(v=2.0, w=4.0, cells=20),
        lead=sl.LeadSpec(J=-0.1, mu=0.0, length=200),
    )
    H = sl.assemble_network(net)
    assert H.dim == 40 + 41 * 200 == 8240
    assert H.hermitian is True


def test_assemble_two_lead_dimensions():
    net = sl.NetworkSpec(
        center=sl.SSHCenter(v=2.0, w=4.0, cells=3),
        lead=sl.LeadSpec(J=1.0, mu=0.0, length=50),
        n_output_leads=1,
        input_attachment=4,
    )
    H = sl.assemble_network(net)
    assert H.dim == 6 + 2 * 50
    assert H.registry.n_outputs == 1
    assert H.registry.output_attachments == (4,)
    # junction bonds present at the shared attachment site
    dense = H.dense()
    in_first = H.registry.index(REGION_INPUT, 1)
    out_first = H.registry.index(REGION_OUTPUT, 1, 1)
    assert dense[in_first, 3] == 1.0
    assert dense[out_first, 3] == 1.0


def test_assemble_rejects_bad_attachment():
    with pytest.raises(sl.PhysicsError):
        sl.NetworkSpec(
            center=sl.SSHCenter(v=1.0, w=2.0, cells=2),
            lead=sl.LeadSpec(J=1.0),
            input_attachment=5,
        )
    with pytest.raises(sl.PhysicsError):
        sl.NetworkSpec(
            center=sl.SSHCenter(v=1.0, w=2.0, cells=2),
            lead=sl.LeadSpec(J=1.0),
            n_output_leads=3,
        )


def test_hermitian_closure_for_random_hermitian_center():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    net = sl.NetworkSpec(
        center=sl.CustomCenter(a + a.conj().T),
        lead=sl.LeadSpec(J=-0.3, mu=0.2, length=10),
    )
    assert sl.assemble_network(net).hermitian is True


def test_gain_loss_network_structurally_symmetric():
    net = sl.NetworkSpec(
        center=sl.NonHermitianSSHCenter(v=40.0, w=2.0, gamma=10.0, cells=4),
        lead=sl.LeadSpec(J=-0.1, mu=0.0, length=20),
    )
    H = sl.assemble_network(net)
    assert H.hermitian is False
    pattern = (H.matrix != 0).astype(int)
    assert (pattern != pattern.T).nnz == 0


@pytest.mark.parametrize(
    "J,mu,k,expected",
    [
        (-0.1, 0.0, np.pi / 2, 0.0),
        (1.0, 5.0, np.pi / 2, 5.0),
        (1.0, 0.0, 0.0, 2.0),
    ],
)
def test_dispersion(J, mu, k, expected):
    assert sl.dispersion(J, mu, k) == pytest.approx(expected, abs=1e-15)


def test_group_velocity_matches_dispersion_derivative():
    # central finite difference of E(k) as the independent check
    J, mu, k = -0.37, 0.4, 1.1
    h = 1e-6
    dEdk = (sl.dispersion(J, mu, k + h) - sl.dispersion(J, mu, k - h)) / (2 * h)
    assert sl.group_velocity(J, k) == pytest.approx(abs(dEdk), rel=1e-8)


def test_apply_single_site():
    H = sl.build_center(sl.CustomCenter(np.array([[3.0]])))
    np.testing.assert_allclose(H.apply(np.array([1.0])), [3.0])


def test_apply_zero_matrix():
    H = sl.build_center(sl.SSHCenter(v=0.0, w=1.0, cells=1))
    np.testing.assert_array_equal(H.apply(np.array([1.0, 2.0])), [0.0, 0.0])


def test_apply_matches_dense_multiply():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    H = sl.build_center(sl.CustomCenter(a))
    psi = rng.normal(size=10) + 1j * rng.normal(size=10)
    np.testing.assert_allclose(H.apply(psi), a @ psi, atol=1e-13)


def test_apply_rejects_dimension_mismatch():
    H = sl.build_center(sl.SSHCenter(v=1.0, w=2.0, cells=2))
    with pytest.raises(sl.PhysicsError):
        H.apply(np.zeros(3))


def test_dense_eigs_finds_near_zero_edge_pair():
    w, _ = sl.dense_eigs(sl.build_center(sl.SSHCenter(v=2.0, w=4.0, cells=20)))
    assert np.min(np.abs(w)) < 1e-4


def test_dense_eigs_single_site():
    w, v = sl.dense_eigs(sl.build_center(sl.CustomCenter(np.array([[2.5]]))))
    np.testing.assert_allclose(w, [2.5])
    np.testing.assert_allclose(np.abs(v), [[1.0]])


def test_dense_eigs_gain_loss_doublets():
    # Exact identity: squaring the gain/loss chain subtracts gamma^2 from
    # the squared Hermitian spectrum, so its eigenvalues are
    # +/- sqrt(e_h^2 - gamma^2) with e_h from the Hermitian chain.
    gamma = 10.0
    herm = np.linalg.eigvalsh(sl.center_matrix(sl.SSHCenter(40.0, 2.0, 4)))
    expected = np.sort(np.concatenate([-np.sqrt(herm[herm > 0] ** 2 - gamma**2),
                                       np.sqrt(herm[herm > 0] ** 2 - gamma**2)]))
    w, _ = sl.dense_eigs(
        sl.build_center(sl.NonHermitianSSHCenter(40.0, 2.0, gamma, 4))
    )
    np.testing.assert_allclose(w.real, expected, atol=1e-9)
    np.testing.assert_allclose(w.imag, 0.0, atol=1e-9)
    # strong-dimerization closed form lands within its approximation error
    spec = sl.nh_spectrum(40.0, 2.0, gamma, 4)
    analytic = np.array([lv.real_energy for lv in spec.real_levels()])
    pos = w.real[w.real > 0]
    assert np.max(np.abs(np.sort(pos) - np.sort(analytic))) < 0.03


def test_dense_eigs_residuals_small():
    rng = np.random.default_rng(3)
    for n in (7, 40, 120):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H = sl.build_center(sl.CustomCenter(a + a.conj().T))
        w, v = sl.dense_eigs(H)
        res = np.linalg.norm(H.dense() @ v - v * w[np.newaxis, :], axis=0)
        assert res.max() < 1e-9


def test_dense_eigs_cap():
    H = sl.build_center(sl.SSHCenter(v=1.0, w=2.0, cells=8))
    with pytest.raises(sl.NumericalError):
        sl.dense_eigs(H, cap=10)


@given(
    v=st.floats(-10, 10, allow_nan=False),
    w=st.floats(-10, 10, allow_nan=False),
    cells=st.integers(1, 6),
)
def test_ssh_chiral_symmetry_exact(v, w, cells):
    h = sl.center_matrix(sl.SSHCenter(v=v, w=w, cells=cells))
    sigma = np.diag((-1.0) ** np.arange(2 * cells))
    np.testing.assert_array_equal(sigma @ h @ sigma, -h)


@settings(max_examples=60)
@given(
    n_center=st.integers(1, 8),
    length=st.integers(1, 6),
    two_lead=st.booleans(),
    data=st.data(),
)
def test_registry_round_trip(n_center, length, two_lead, data):
    alpha = data.draw(st.integers(1, n_center))
    attachments = (alpha,) if two_lead else tuple(range(1, n_center + 1))
    reg = SiteRegistry(
        n_center=n_center,
        lead_length=length,
        output_attachments=attachments,
        input_attachment=alpha if two_lead else 1,
    )
    assert reg.dim == n_center + (len(attachments) + 1) * length
    seen = set()
    for idx in range(reg.dim):
        region, channel, offset = reg.site(idx)
        assert reg.index(region, offset, channel) == idx
        seen.add((region, channel, offset))
    assert len(seen) == reg.dim


def test_registry_rejects_bad_labels():
    reg = SiteRegistry(n_center=4, lead_length=3, output_attachments=(1, 2, 3, 4),
                       input_attachment=1)
    with pytest.raises(sl.PhysicsError):
        reg.index(REGION_CENTER, 5)
    with pytest.raises(sl.PhysicsError):
        reg.index(REGION_OUTPUT, 1, channel=9)
    with pytest.raises(sl.PhysicsError):
        reg.site(reg.dim)
