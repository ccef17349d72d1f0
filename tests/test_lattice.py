import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatterlab as sl
from scatterlab.lattice import REGION_CENTER, REGION_INPUT, REGION_OUTPUT, attachment_sites


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
    assert np.abs(h - h.conj().T).max() > 0


def test_center_rejects_zero_cells():
    with pytest.raises(sl.PhysicsError):
        sl.SSHCenter(v=1.0, w=2.0, cells=0)
    with pytest.raises(sl.PhysicsError):
        sl.NonHermitianSSHCenter(v=1.0, w=2.0, gamma=1.0, cells=0)


def test_center_matrix_refuses_a_center_beyond_the_cap(monkeypatch):
    monkeypatch.setattr(sl.lattice, "_MAX_CENTER_SITES", 8)
    assert sl.center_matrix(sl.SSHCenter(v=1.0, w=2.0, cells=4)).shape == (8, 8)
    for center in (
        sl.SSHCenter(v=1.0, w=2.0, cells=5),
        sl.NonHermitianSSHCenter(v=1.0, w=2.0, gamma=1.0, cells=5),
        sl.CustomCenter(np.eye(10)),
    ):
        with pytest.raises(sl.PhysicsError) as err:
            sl.center_matrix(center)
        assert str(err.value) == "center of 10 sites exceeds the dense-matrix cap of 8"


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


@pytest.mark.parametrize(
    "J, mu", [(1e308, 0.0), (-1e308, 0.0), (4e307, 1.5e308), (np.nan, 0.0), (1.0, np.inf)]
)
def test_lead_spec_rejects_a_band_edge_beyond_the_float_range(J, mu):
    with pytest.raises(sl.PhysicsError, match=r"lead band edge 2\|J\| \+ \|mu\| is not finite"):
        sl.LeadSpec(J=J, mu=mu)
    assert sl.LeadSpec(J=4e307, mu=1e307).J == 4e307  # 9e307 is still a float


@pytest.mark.parametrize(
    "make, field",
    [(lambda x: sl.SSHCenter(v=x, w=1.0, cells=2), "v"),
     (lambda x: sl.SSHCenter(v=1.0, w=x, cells=2), "w"),
     (lambda x: sl.NonHermitianSSHCenter(v=x, w=1.0, gamma=0.5, cells=2), "v"),
     (lambda x: sl.NonHermitianSSHCenter(v=1.0, w=x, gamma=0.5, cells=2), "w"),
     (lambda x: sl.NonHermitianSSHCenter(v=1.0, w=1.0, gamma=x, cells=2), "gamma")],
    ids=["ssh-v", "ssh-w", "nh-v", "nh-w", "nh-gamma"],
)
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_center_rejects_non_finite_parameters(make, field, value):
    with pytest.raises(sl.PhysicsError, match=f"Center.{field} must be finite, got {value}"):
        make(value)


def test_assemble_multichannel_dimensions_and_hermiticity():
    # 40-site center, 40 output leads + 1 input lead, 200 sites each.
    net = sl.NetworkSpec(
        center=sl.SSHCenter(v=2.0, w=4.0, cells=20),
        lead=sl.LeadSpec(J=-0.1, mu=0.0, length=200),
    )
    H = sl.assemble_network(net)
    assert H.dim == 40 + 41 * 200 == 8240
    assert abs(H.matrix - H.matrix.getH()).max() == 0


def test_assemble_two_lead_dimensions():
    net = sl.NetworkSpec(
        center=sl.SSHCenter(v=2.0, w=4.0, cells=3),
        lead=sl.LeadSpec(J=1.0, mu=0.0, length=50),
        alpha=4,
    )
    H = sl.assemble_network(net)
    assert H.dim == 6 + 2 * 50
    assert net.n_outputs == 1
    assert net.attachments == (4, 4)
    # junction bonds present at the shared attachment site
    dense = H.matrix.toarray()
    in_first, out_first = net.leads(np.arange(H.dim))[:, 0]
    assert dense[in_first, 3] == 1.0
    assert dense[out_first, 3] == 1.0


def test_assemble_rejects_bad_attachment():
    for alpha in (0, 5):  # outside the 4-site center [1, 4]
        with pytest.raises(sl.PhysicsError, match=f"alpha={alpha} outside"):
            sl.NetworkSpec(
                center=sl.SSHCenter(v=1.0, w=2.0, cells=2),
                lead=sl.LeadSpec(J=1.0),
                alpha=alpha,
            )


def _dense_network(hc, J, mu, length, attachments):
    # The layout written out by hand: center block first, then one block of
    # `length` sites per lead in `attachments` order (input lead first).
    n = hc.shape[0]
    dim = n + len(attachments) * length
    m = np.zeros((dim, dim), dtype=complex)
    m[:n, :n] = hc
    for lead, site in enumerate(attachments):
        start = n + lead * length
        m[start, site - 1] = m[site - 1, start] = J  # junction at lead offset 1
        for o in range(start, start + length):
            m[o, o] = mu
            if o + 1 < start + length:
                m[o, o + 1] = m[o + 1, o] = J
    return m


@pytest.mark.parametrize(
    "alpha, attachments", [(None, (1, 1, 2, 3, 4)), (3, (3, 3))], ids=["multichannel", "two-lead"]
)
def test_assemble_matches_dense_reference(alpha, attachments):
    center = sl.NonHermitianSSHCenter(v=3.0, w=1.5, gamma=0.5, cells=2)
    hc = sl.center_matrix(center)
    for mu in (0.35, 0.0):
        lead = sl.LeadSpec(J=-0.7, mu=mu, length=3)
        net = sl.NetworkSpec(center=center, lead=lead, alpha=alpha)
        assert net.attachments == attachments
        assert attachment_sites(center.n_sites, alpha) == attachments
        H = sl.assemble_network(net)
        expected = _dense_network(hc, -0.7, mu, 3, attachments)
        np.testing.assert_array_equal(H.matrix.toarray(), expected)
        # no explicit zeros: with mu = 0 the lead diagonal is not stored
        assert H.matrix.nnz == np.count_nonzero(expected)


def test_hermitian_closure_for_random_hermitian_center():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    net = sl.NetworkSpec(
        center=sl.CustomCenter(a + a.conj().T),
        lead=sl.LeadSpec(J=-0.3, mu=0.2, length=10),
    )
    m = sl.assemble_network(net).matrix
    assert abs(m - m.getH()).max() == 0


def test_gain_loss_network_structurally_symmetric():
    net = sl.NetworkSpec(
        center=sl.NonHermitianSSHCenter(v=40.0, w=2.0, gamma=10.0, cells=4),
        lead=sl.LeadSpec(J=-0.1, mu=0.0, length=20),
    )
    H = sl.assemble_network(net)
    assert abs(H.matrix - H.matrix.getH()).max() > 0
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


def test_dense_eigs_finds_near_zero_edge_pair():
    w = np.linalg.eigvalsh(sl.center_matrix(sl.SSHCenter(v=2.0, w=4.0, cells=20)))
    assert np.min(np.abs(w)) < 1e-4


def test_dense_eigs_gain_loss_doublets():
    # Exact identity: squaring the gain/loss chain subtracts gamma^2 from
    # the squared Hermitian spectrum, so its eigenvalues are
    # +/- sqrt(e_h^2 - gamma^2) with e_h from the Hermitian chain.
    gamma = 10.0
    herm = np.linalg.eigvalsh(sl.center_matrix(sl.SSHCenter(40.0, 2.0, 4)))
    expected = np.sort(np.concatenate([-np.sqrt(herm[herm > 0] ** 2 - gamma**2),
                                       np.sqrt(herm[herm > 0] ** 2 - gamma**2)]))
    w = np.linalg.eigvals(sl.center_matrix(sl.NonHermitianSSHCenter(40.0, 2.0, gamma, 4)))
    w = w[np.argsort(w.real, kind="stable")]
    np.testing.assert_allclose(w.real, expected, atol=1e-9)
    np.testing.assert_allclose(w.imag, 0.0, atol=1e-9)
    # strong-dimerization closed form lands within its approximation error
    spec = sl.nh_spectrum(40.0, 2.0, gamma, 4)
    analytic = np.array([lv.real_energy for lv in spec])
    pos = w.real[w.real > 0]
    assert np.max(np.abs(np.sort(pos) - np.sort(analytic))) < 0.03


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
@given(n_center=st.integers(1, 8), length=st.integers(1, 6), data=st.data())
def test_registry_labels_cover_the_layout(n_center, length, data):
    alpha = data.draw(st.none() | st.integers(1, n_center))
    net = sl.NetworkSpec(
        center=sl.CustomCenter(np.zeros((n_center, n_center))),
        lead=sl.LeadSpec(J=1.0, length=length),
        alpha=alpha,
    )
    n_leads = len(net.attachments)
    assert net.dim == n_center + n_leads * length
    region, channel, offset = net.labels()
    assert len(set(zip(region, channel, offset))) == len(region) == net.dim
    rows = np.broadcast_to(np.arange(n_leads)[:, None], (n_leads, length))
    np.testing.assert_array_equal(net.leads(channel), rows)
    np.testing.assert_array_equal(net.leads(offset), np.broadcast_to(np.arange(1, length + 1),
                                                                     (n_leads, length)))
    assert set(net.leads(region)[0]) == {REGION_INPUT}
    assert set(net.leads(region)[1:].ravel()) == {REGION_OUTPUT}
    assert set(region[:n_center]) == {REGION_CENTER}
    np.testing.assert_array_equal(channel[:n_center], 0)
    np.testing.assert_array_equal(offset[:n_center], np.arange(1, n_center + 1))


@pytest.mark.parametrize("alpha", [None, 3], ids=["multichannel", "two-lead"])
def test_registry_leads_rows_match_index_gathers(alpha):
    net = sl.NetworkSpec(
        center=sl.SSHCenter(v=1.0, w=2.0, cells=2),
        lead=sl.LeadSpec(J=1.0, length=3),
        alpha=alpha,
    )
    values = np.arange(2.0 * net.dim).reshape(2, net.dim)
    rows = net.leads(values)
    assert rows.shape == (2, net.n_outputs + 1, 3)
    assert np.shares_memory(rows, values)
    # center block first, then 3-site blocks: input lead, output leads 1, 2, ...
    for lead in range(net.n_outputs + 1):
        start = 4 + 3 * lead
        np.testing.assert_array_equal(rows[:, lead], values[:, start : start + 3])
    np.testing.assert_array_equal(net.leads(values[1]), rows[1])
