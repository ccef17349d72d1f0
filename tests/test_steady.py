import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scatterlab as sl
from scatterlab import cli, steady
from scatterlab.lattice import BAND_CENTRE_K, attachment_sites, dispersion, incident_wave_vector


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


# a steady k is the magnitude of the incident wave vector, whose sign
# follows J: no k outside (0, pi) is one, -pi/2 included
@pytest.mark.parametrize("k", [0.0, np.pi, -0.2, 3.5, -K])
def test_rejects_band_edge_wave_vector(k):
    message = r"outside \(0, pi\): the incident wave must travel toward the center"
    with pytest.raises(sl.PhysicsError, match=message):
        sl.solve_multichannel(_ssh(2.0), J=-0.1, mu=0.0, k=k)
    with pytest.raises(sl.PhysicsError, match=message):
        sl.two_lead_solve(_ssh(2.0), 1, 1.0, 0.0, k)


def test_multichannel_refuses_a_zero_lead_hopping():
    with pytest.raises(sl.PhysicsError, match="lead hopping J must be nonzero"):
        sl.solve_multichannel(_ssh(2.0), J=0.0, mu=0.0, k=K)


# solve_multichannel reads its terms from _lead_terms; away from the
# subnormal and overflow ranges doubling and halving are exact, so they
# equal the multichannel system's own J e^{iq}, E and 2iJ sin q bit for
# bit, at the incident wave vector q (k for J < 0, -k for J > 0)
@given(
    J=st.floats(1e-100, 1e100).flatmap(lambda m: st.sampled_from((m, -m))),
    k=st.floats(1e-9, np.pi - 1e-9),
    mu=st.floats(-1e6, 1e6),
)
def test_lead_terms_are_the_multichannel_terms_bitwise(J, k, mu):
    band, lead, drive = steady._lead_terms(J, k)
    q = incident_wave_vector(J, k)
    assert q == (k if J < 0 else -k)
    assert (band + mu).hex() == float(dispersion(J, mu, q)).hex()
    assert 0.5 * lead == complex(J * np.exp(1j * q))
    assert drive == complex(2j * J * np.sin(q))


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


# fig 3a's chain: the levels 5.98 and 5.94 nearest mu = 7 are split by less
# than the width 0.2, but the probe is 1.016 from them, off resonance, and
# images neither; the zero-mode pair at mu = 0 is on resonance
@pytest.mark.parametrize("mu, warns", [(0.0, True), (7.0, False), (50.0, False)])
def test_degeneracy_warning_only_on_resonance(mu, warns):
    sol = sl.solve_multichannel(_ssh(2.0), J=-0.1, mu=mu, k=K)
    assert (sol.detuning <= sol.width) == warns
    assert bool(sol.warnings) == warns


def test_steady_probabilities_square_pythons_abs_of_each_amplitude():
    # one |t|^2 for summary.json, the plot and amplitudes.csv: on fig 3a's
    # chain off the zero mode, numpy's array np.abs rounded 16 of these 40
    # apart in the last bit
    sol = sl.solve_multichannel(_ssh(2.0), J=-0.1, mu=0.3, k=K)
    assert sol.transmittance.tobytes() == np.array([abs(a) ** 2 for a in sol.t]).tobytes()
    assert sol.flux_error == sol.reflectance + sol.transmittance.sum() - 1


def test_degeneracy_warning_compares_the_gap_with_the_resonance_width():
    # figure 3b's edge pair is split by 0.0111: below the width 2|J| sin k
    # = 0.2, so the probe images the pair (fidelity 0.499 to either level)
    sol = sl.solve_multichannel(_ssh(3.0), J=-0.1, mu=0.0, k=K)
    (message,) = sol.warnings
    assert "split by 1.110e-02 < resonance width 2|J| sin k = 2.000e-01" in message


@pytest.mark.parametrize("v", [2.0, 3.0, 6.0])
@pytest.mark.parametrize("k", [K, 0.7])
def test_degeneracy_warning_is_scale_free(v, k):
    # scaling the centre, J and mu together scales every energy alike
    sol = sl.solve_multichannel(_ssh(v), J=-0.1, mu=0.05, k=k)
    scaled = sl.solve_multichannel(10.0 * _ssh(v), J=-1.0, mu=0.5, k=k)
    assert bool(sol.warnings) == bool(scaled.warnings)


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


def test_mu_scan_probes_at_the_band_centre(monkeypatch):
    wave_vectors = []
    two_lead_solve = steady.two_lead_solve

    def recording(system, alpha, J, mu, k):
        wave_vectors.append(k)
        return two_lead_solve(system, alpha, J, mu, k)

    monkeypatch.setattr(steady, "two_lead_solve", recording)
    scan = sl.mu_scan(_ssh(2.0, cells=2), 1, 1.0, (-6.5, 6.5), 1e-2)
    assert scan.resonances
    assert len(wave_vectors) > len(scan.mu_grid)
    assert set(wave_vectors) == {BAND_CENTRE_K}


def test_mu_scan_resonances_sit_on_visible_eigenvalues():
    center = _ssh(2.0)
    scan = sl.mu_scan(center, alpha=1, J=1.0, mu_range=(-7.0, 7.0), resolution=1e-3)
    assert len(scan.resonances) >= 30
    vals, weights = sl.resonant_eigenvalues(center, 1)
    for mu_star, r2 in zip(scan.resonances, scan.resonance_reflectance):
        assert r2 < 1e-8
        i = int(np.argmin(np.abs(vals - mu_star)))
        assert abs(vals[i] - mu_star) < 1e-3
        assert weights[i] > 1e-12


def test_mu_scan_gain_loss_center():
    center = sl.center_matrix(sl.NonHermitianSSHCenter(40.0, 2.0, 10.0, 4))
    scan = sl.mu_scan(center, alpha=1, J=1.0, mu_range=(30.0, 50.0), resolution=1e-3)
    assert len(scan.resonances) == 4
    exact = np.linalg.eigvals(center)
    exact = np.sort(exact.real[exact.real > 0])
    np.testing.assert_allclose(sorted(scan.resonances), exact, atol=1e-6)
    # the strong-dimerization formula carries a few-percent-of-a-site error
    spec = sl.nh_spectrum(40.0, 2.0, 10.0, 4)
    analytic = np.sort([lv.real_energy for lv in spec])
    assert np.max(np.abs(np.sort(scan.resonances) - analytic)) < 0.03


@pytest.mark.parametrize(
    "mu_range, step, grid",
    [((0.0, 1.0), 0.4, [0.0, 0.4, 0.8]), ((0.0, 0.3), 0.1, [0.0, 0.1, 0.2, 0.30000000000000004])],
    ids=["2.5-steps", "0.3/0.1-just-below-3"],
)
def test_mu_scan_grid_stays_in_its_window(mu_range, step, grid):
    # the step count used to round to nearest: 2.5 steps sampled mu = 1.2 on
    # [0, 1].  A width of whole steps counts them all, though 0.3 / 0.1 is
    # 2.9999999999999996 in floating point
    scan = sl.mu_scan(_ssh(2.0), alpha=1, J=1.0, mu_range=mu_range, resolution=step)
    assert scan.mu_grid.tolist() == grid


def test_mu_scan_empty_window():
    scan = sl.mu_scan(_ssh(2.0), alpha=1, J=1.0, mu_range=(8.0, 9.0), resolution=1e-2)
    assert scan.resonances == ()
    assert scan.reflectance.min() > 0.9


def test_mu_scan_reports_dark_states():
    # site basis eigenstates: |2> has no weight on the attachment site 1
    center = np.diag([1.0, 2.0]).astype(complex)
    scan = sl.mu_scan(center, alpha=1, J=1.0, mu_range=(0.0, 3.0), resolution=1e-3)
    assert len(scan.resonances) == 1
    assert scan.resonances[0] == pytest.approx(1.0, abs=1e-6)
    # on the dark level itself r is that of the center without it:
    # t = 2iJ sin q / (1 - 2 + 2J e^{iq}) at the incident q = -pi/2 of J = 1
    r_dark, _ = sl.two_lead_solve(center, 1, 1.0, 2.0, K)
    r_reduced, _ = sl.two_lead_solve(np.array([[1.0]]), 1, 1.0, 2.0, K)
    assert r_dark == pytest.approx(r_reduced, abs=1e-12)
    assert r_reduced == pytest.approx(-0.2 + 0.4j, abs=1e-12)


def _random_hermitian(seed, n=12):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("scale", [1e8, 1e10])
@pytest.mark.parametrize("seed", [0, 1])
def test_resonant_eigenvalues_keeps_every_level_of_a_scaled_hermitian_centre(seed, scale):
    # eig's imaginary noise grows with the spectrum (6e-8 at 1e8, 6e-6 at
    # 1e10); an absolute 1e-9 cut reported 0-2 of these 12 real levels
    center = _random_hermitian(seed) * scale
    vals, weights = sl.resonant_eigenvalues(center, 1)
    assert len(vals) == len(weights) == 12
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(center), rtol=1e-12, atol=1e-12 * scale)


def test_resonant_eigenvalues_of_the_figure_centres_are_unchanged():
    # the levels the absolute cut |Im| <= 1e-9 kept, bit for bit, for every
    # centre and attachment site of the paper's figures
    from scatterlab import cli

    jobs = [cfg for fig in cli._FIGURES for _, cfg in cli.figure_configs(fig) if cfg.center]
    assert len(jobs) > 10
    for cfg in jobs:
        center = sl.center_matrix(cfg.center)
        alpha = cfg.scan.alpha if cfg.scan else 1
        vals, vecs = np.linalg.eig(center)
        order = np.argsort(vals.real, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        real = np.abs(vals.imag) <= 1e-9
        got_vals, got_weights = sl.resonant_eigenvalues(center, alpha)
        assert got_vals.tobytes() == vals[real].real.tobytes()
        assert got_weights.tobytes() == (np.abs(vecs[alpha - 1, real]) ** 2).tobytes()


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_resonant_eigenvalues_finds_the_dark_level_of_a_degenerate_pair(alpha):
    # the triangle's level -1 is twofold; e_alpha meets that eigenspace along
    # one direction, weight 2/3, so one level of the pair is dark whatever
    # basis eig picks for it
    triangle = np.ones((3, 3)) - np.eye(3)
    vals, weights = sl.resonant_eigenvalues(triangle, alpha)
    np.testing.assert_allclose(vals, [-1.0, -1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(weights, [2 / 3, 0.0, 1 / 3], atol=1e-12)


@pytest.mark.parametrize("alpha", [1, 2])
def test_resonant_eigenvalues_takes_a_gap_beyond_the_float_range_as_two_levels(alpha):
    # the levels 1 -+ 1e308 are 2e308 apart: the gap overflows to inf, which
    # ends a degenerate run, and numpy's overflow warning is an error here
    vals, weights = sl.resonant_eigenvalues(np.array([[1.0, 1e308], [1e308, 1.0]]), alpha)
    assert vals.tolist() == [-1e308, 1e308]
    np.testing.assert_allclose(weights, [0.5, 0.5], rtol=1e-15)


@pytest.mark.parametrize("alpha", [0, 3, -1])
def test_resonant_eigenvalues_rejects_site_outside_center(alpha):
    # alpha = 0 would read site N through vecs[-1]; alpha = N + 1 an IndexError
    with pytest.raises(sl.PhysicsError, match=rf"attachment site {alpha} outside \[1, 2\]"):
        sl.resonant_eigenvalues(np.diag([1.0, 2.0]), alpha)


def test_two_lead_singular_at_attachment_site_raises():
    # a gain level at mu + 2i|J| cancels the lead self-energy 2J e^{iq} =
    # -2i|J| at the band centre, for either sign of J: the singular
    # direction sits on alpha, so r is undefined
    for J in (1.0, -1.0):
        with pytest.raises(sl.NumericalError):
            sl.two_lead_solve(np.array([[2.0j]]), 1, J, 0.0, K)


def test_solve_multichannel_refuses_an_empty_centre():
    # the input lead needs a site 1 to attach to
    with pytest.raises(sl.PhysicsError, match="square and non-empty"):
        sl.solve_multichannel(np.zeros((0, 0)), J=-0.1, mu=0.0, k=K)


def test_mu_scan_input_validation():
    with pytest.raises(sl.PhysicsError):
        sl.mu_scan(_ssh(2.0), 1, 1.0, (1.0, 1.0), 1e-3)
    with pytest.raises(sl.PhysicsError):
        sl.mu_scan(_ssh(2.0), 1, 1.0, (0.0, 1.0), 0.0)


@pytest.mark.parametrize(
    ("mu_range", "resolution"),
    [
        ((0.0, 1.0), np.nan),
        ((0.0, 1.0), np.inf),
        ((np.nan, 1.0), 1e-3),
        ((0.0, np.inf), 1e-3),
    ],
)
def test_mu_scan_rejects_non_finite_inputs(mu_range, resolution):
    with pytest.raises(sl.PhysicsError, match="finite"):
        sl.mu_scan(_ssh(2.0, cells=3), 1, 1.0, mu_range, resolution)


def _fig7_scan(name, offset=0.0):
    """The centre, scan config and ``mu_scan`` of a fig 7 panel, its
    window moved by ``offset`` steps."""
    cfg = dict(cli.figure_configs("7"))[name]
    s, center = cfg.scan, sl.center_matrix(cfg.center)
    d = offset * s.step
    return center, s, sl.mu_scan(center, s.alpha, s.J, (s.mu_min + d, s.mu_max + d), s.step)


@pytest.mark.parametrize("name", ["fig7b", "fig7c", "fig7d", "fig7e", "fig7f"])
def test_fig7_resonances_lie_within_2e_15_of_the_40_digit_levels(name):
    # relative above 1: fig 7f's levels sit near 38, where doubles are
    # 7.1e-15 apart
    center, _, scan = _fig7_scan(name)
    assert scan.resonances
    with mpmath.workdps(40):
        a = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in center])
        levels = mpmath.eig(a, left=False, right=False)
        for mu in scan.resonances:
            lam = min(levels, key=lambda e: abs(mpmath.mpf(mu) - e))
            assert abs(mpmath.mpf(mu) - lam) <= 2e-15 * max(1.0, abs(lam)), mu


@pytest.mark.parametrize("name", ["fig7b", "fig7f"])
def test_fig7_scan_finds_each_bright_isolated_level_once_at_any_window_offset(name):
    # perfbench's check_fig7 rule: a level whose dip is at least 5 steps
    # wide and which lies at least 4 steps from every other level has a
    # grid candidate wherever the window starts
    for offset in (0.0, 0.13, 0.29, 0.5, 0.71, 0.94):
        center, s, scan = _fig7_scan(name, offset)
        real, weights = sl.resonant_eigenvalues(center, s.alpha)
        every = np.linalg.eigvals(center)
        found = np.array(scan.resonances)
        nearest = np.abs(found[:, None] - real[None, :]).argmin(axis=1)
        assert np.abs(found - real[nearest]).max() <= 1e-9
        assert len(set(nearest.tolist())) == len(found), offset  # one per level
        lo, hi = scan.mu_grid[0] + s.step, scan.mu_grid[-1] - s.step
        width = 2.0 * abs(s.J) * abs(np.sin(s.k)) * weights
        for lam, wid in zip(real, width):
            isolated = np.sum(np.abs(every - lam) < 4 * s.step) == 1
            if wid >= 5 * s.step and isolated and lo <= lam <= hi:
                assert np.sum(np.abs(found - lam) <= 1e-9) == 1, (offset, lam)
        if name == "fig7b":
            # the edge pair, split by 5.7e-6 inside one step, shares one dip
            pair = real[np.argsort(np.abs(real))[:2]]
            assert np.abs(found[:, None] - pair[None, :]).min() <= 1e-9, offset


@pytest.mark.parametrize("xs", [(-0.01, 0.0001, 0.0101), (-0.02, -0.001, 0.018), (-0.1, 0.05, 0.2)])
def test_secant_lands_on_a_zero_at_mu_0(xs):
    # the 3-site chain's middle level is 0, where a step test relative to
    # x alone would not stop: r reaches exactly 0 at mu = -2J cos q
    center = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    calls = []

    def r(mu):
        calls.append(mu)
        return sl.two_lead_solve(center, 1, 1.0, mu, K)[0]

    fs = [abs(r(x)) ** 2 for x in xs]
    calls.clear()
    mu_star, r_star = steady._secant_zero(r, xs, fs)
    assert abs(mu_star) <= 1e-15
    assert abs(r_star) ** 2 < steady.RESONANCE_R2
    assert len(calls) < 2 + steady._SECANT_MAXITER
    scan = sl.mu_scan(center, 1, 1.0, (-1.003, 1.0), 1e-2)
    assert min(abs(mu) for mu in scan.resonances) <= 1e-15


@pytest.mark.parametrize(
    ("fs", "first"),
    [((2.25, 0.25, 0.25), 1.0), ((1.0, 0.25, 2.25), -1.0), ((1.0, 0.25, 1.0), -1.0)],
    ids=["right-lower-and-tied-with-the-centre", "left-lower", "ends-tie"],
)
def test_secant_starts_from_the_lower_grid_neighbour(fs, first):
    # mu_scan's candidate rule admits a centre value equal to its right
    # neighbour's; the secant starts there all the same
    calls = []

    def f(x):
        calls.append(x)
        return complex(x - 0.5)

    assert steady._secant_zero(f, (-1.0, 0.0, 1.0), fs) == (0.5, 0j)
    assert calls[:2] == [first, 0.0]


def test_secant_rejects_a_step_that_leaves_the_bracket():
    # from xb = 0.1 and xa = -1 (a tie with xc), the first step lands at 1.22
    def f(x):
        return complex(1.0 + x * x)

    assert steady._secant_zero(f, (-1.0, 0.1, 1.0), (4.0, 1.0201, 4.0)) is None


def test_mu_scan_drops_a_dip_that_never_reaches_the_resonance_threshold(monkeypatch):
    # one gain site: |r|^2 = mu^2 + 0.01 over mu^2 + 3.61 bottoms out at
    # 0.0028, a candidate below 1e-2 whose refinement ends above 1e-8
    refined = []
    secant_zero = steady._secant_zero

    def recording(f, xs, fs):
        refined.append(secant_zero(f, xs, fs))
        return refined[-1]

    monkeypatch.setattr(steady, "_secant_zero", recording)
    scan = sl.mu_scan(np.array([[0.1j]]), 1, 1.0, (-0.5, 0.5), 1e-2)
    assert scan.resonances == ()
    (zero,) = refined
    assert abs(zero[1]) ** 2 == pytest.approx(0.01 / 3.61)


def test_eigenfunction_from_transmissions_images_edge_state():
    sol = sl.solve_multichannel(_ssh(2.0), J=-0.1, mu=0.0, k=K)
    vec = sl.eigenfunction_from_transmissions(sol)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    edge = np.zeros(40)
    edge[0::2] = sl.edge_state_amplitudes(0.5, 20)
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


def _dense_r(center, alpha, J, mu, k):
    """r by the dense LU route that serves centres off the tridiagonal
    band, at the incident wave vector q of (J, k)."""
    q = incident_wave_vector(J, k)
    energy = float(sl.dispersion(J, mu, q))
    center = np.asarray(center, dtype=complex)
    sites = attachment_sites(len(center), alpha)
    psi = steady._attached_solve(
        center, sites, energy, 2.0 * J * np.exp(1j * q), 2j * J * np.sin(q)
    )
    return psi[0] - 1.0


def _oracle_r2(center, alpha, J, mu, k):
    """|r|^2 of the two-lead system by a 40-digit LU, with E, e^{iq} and
    sin q taken exactly at the float inputs, q the incident wave vector
    of (J, k)."""
    with mpmath.workdps(40):
        n = center.shape[0]
        kk, jj = mpmath.mpf(incident_wave_vector(J, k)), mpmath.mpf(J)
        a = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in center])
        energy = 2 * jj * mpmath.cos(kk) + mpmath.mpf(mu)
        for i in range(n):
            a[i, i] -= energy
        a[alpha - 1, alpha - 1] += 2 * jj * mpmath.exp(1j * kk)
        rhs = mpmath.matrix(n, 1)
        rhs[alpha - 1] = 2j * jj * mpmath.sin(kk)
        t = mpmath.lu_solve(a, rhs)[alpha - 1]
        return float(abs(t - 1) ** 2)


@pytest.mark.parametrize(
    ("center", "mu_range", "step", "near", "stride"),
    [
        (_ssh(2.0, cells=3), (-6.5, 6.5), 2e-3, 3, 100),
        (sl.center_matrix(sl.NonHermitianSSHCenter(40.0, 2.0, 10.0, 4)), (30.0, 50.0), 1e-3, 6, 400),
    ],
    ids=["golden-mu-scan-grid", "fig7f-centre"],
)
def test_chain_scan_matches_oracle_at_least_as_often_as_dense(center, mu_range, step, near, stride):
    # the rows next to each level, where |r|^2 is most sensitive, and a stride
    scan = sl.mu_scan(center, alpha=1, J=1.0, mu_range=mu_range, resolution=step)
    grid = scan.mu_grid
    levels = np.linalg.eigvals(center).real
    rows = set(range(0, len(grid), stride))
    for lam in levels[(grid[0] <= levels) & (levels <= grid[-1])]:
        i = int(np.argmin(np.abs(grid - lam)))
        rows.update(range(max(i - near, 0), min(i + near + 1, len(grid))))
    assert len(rows) <= 120
    chain_right = dense_right = 0
    for i in sorted(rows):
        oracle = "%.12g" % _oracle_r2(center, 1, 1.0, grid[i], K)
        chain_right += "%.12g" % scan.reflectance[i] == oracle
        dense_right += "%.12g" % abs(_dense_r(center, 1, 1.0, grid[i], K)) ** 2 == oracle
    assert chain_right >= dense_right
    assert chain_right >= 0.9 * len(rows)


@pytest.mark.parametrize("J", [1.0, -1.0])
def test_gain_loss_chain_scan_is_within_1e_13_of_the_oracle_on_every_row(J):
    # fig 7f's centre: near each level the recursion cancels terms of size
    # 40 down to |r|; double precision was off by up to 3e-12 there (the
    # dense LU by 1.5e-11), the extended chain is within 2.1e-14.  Assumes
    # numpy's long double has a wider significand than double (x86-64).
    center = sl.center_matrix(sl.NonHermitianSSHCenter(40.0, 2.0, 10.0, 4))
    scan = sl.mu_scan(center, alpha=1, J=J, mu_range=(30.0, 50.0), resolution=1e-3)
    grid = scan.mu_grid
    rows = set(range(0, len(grid), 400))
    for lam in np.linalg.eigvals(center).real:
        i = int(np.argmin(np.abs(grid - lam)))
        rows.update(range(max(i - 6, 0), min(i + 7, len(grid))))
    for i in sorted(rows):
        oracle = _oracle_r2(center, 1, J, grid[i], K)
        assert abs(scan.reflectance[i] - oracle) <= 1e-13 * oracle, grid[i]


@st.composite
def _tridiagonal_centres(draw):
    """(centre, alpha): Hermitian bonds, some of them zero, and on-site
    energies with an optional imaginary gain/loss part."""
    n = draw(st.integers(1, 7))
    real = st.floats(-3, 3, allow_nan=False)
    gain_loss = st.just(0.0) | st.floats(-2, 2)
    onsite = np.array([complex(draw(real), draw(gain_loss)) for _ in range(n)])
    bonds = np.array(
        [complex(draw(st.just(0.0) | real), draw(st.just(0.0) | real)) for _ in range(n - 1)]
    )
    center = np.diag(onsite) + np.diag(bonds, 1) + np.diag(bonds.conj(), -1)
    alpha = draw(st.sampled_from([1, n]) | st.integers(1, n))
    return center, alpha


_wave_vector = st.floats(0.01, np.pi - 0.01)


@settings(max_examples=200, deadline=None)
@given(
    centre=_tridiagonal_centres(),
    mu=st.floats(-4, 4),
    J=st.sampled_from([-1.0, -0.1, 0.3, 1.0]),
    k=_wave_vector,
)
def test_chain_agrees_with_dense_lu(centre, mu, J, k):
    center, alpha = centre
    r_dense = _dense_r(center, alpha, J, mu, k)
    r_chain, t_chain = sl.two_lead_solve(center, alpha, J, mu, k)
    q = incident_wave_vector(J, k)
    a = center - sl.dispersion(J, mu, q) * np.eye(len(center))
    a[alpha - 1, alpha - 1] += 2.0 * J * np.exp(1j * q)
    assert abs(r_chain - r_dense) <= 1e-13 * np.linalg.cond(a) * max(1.0, abs(t_chain))


@settings(max_examples=200, deadline=None)
@given(centre=_tridiagonal_centres(), data=st.data(), mu=st.floats(-4, 4), k=_wave_vector)
def test_zero_bond_gives_exactly_the_reduced_centre(centre, data, mu, k):
    center, alpha = centre
    n = len(center)
    cut = data.draw(st.integers(1, n - 1)) if n > 1 else None
    if cut is not None:
        center[cut - 1, cut] = center[cut, cut - 1] = 0.0
    reduced, reduced_alpha = _reduced(center, alpha)
    assert sl.two_lead_solve(center, alpha, 1.0, mu, k) == sl.two_lead_solve(
        reduced, reduced_alpha, 1.0, mu, k
    )


def _reduced(center, alpha):
    """(block, site) of the sites that no zero bond cuts off from alpha."""
    bonds = np.diagonal(center, 1) * np.diagonal(center, -1)
    zeros = np.flatnonzero(bonds == 0) + 1  # a zero bond between sites z and z + 1
    lo = max((z for z in zeros if z < alpha), default=0)
    hi = min((z for z in zeros if z >= alpha), default=len(center))
    return center[lo:hi, lo:hi], alpha - lo


# nonzero magnitudes from 1e-150 to 1e150, so a bond product stays finite
_wide = st.builds(
    lambda sign, m, e: sign * m * 10.0**e,
    st.sampled_from([-1.0, 1.0]),
    st.floats(1.0, 9.99),
    st.integers(-150, 149),
)


@st.composite
def _real_chains(draw):
    """(centre, alpha, J, mu, k) for a real tridiagonal centre, not
    necessarily symmetric, with entries of any sign from 1e-150 to 1e150 in
    magnitude, some of them zero.  The first or last on-site entry, or
    both, may equal the probe energy, so the recursion meets an exactly
    zero denominator there."""
    n = draw(st.integers(1, 7))
    J = draw(st.sampled_from([-1.0, -0.1, 0.3, 1.0]))
    k = draw(st.just(BAND_CENTRE_K) | _wave_vector)
    mu = draw(_wide)
    center = np.diag([draw(st.just(0.0) | _wide) for _ in range(n)])
    center += np.diag([draw(_wide) for _ in range(n - 1)], 1)
    center += np.diag([draw(_wide) for _ in range(n - 1)], -1)
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 2))
        center[(i, i + 1) if draw(st.booleans()) else (i + 1, i)] = 0.0
    energy = float(sl.dispersion(J, mu, k))
    for site in draw(st.sampled_from([(), (0,), (n - 1,), (0, n - 1)])):
        center[site, site] = energy
    return center, draw(st.integers(1, n)), J, mu, k


def _chain_entries(chain):
    return [chain.onsite, *(x for pair in chain.left + chain.right for x in pair)]


def _complex_copy(chain):
    def side(pairs):
        return tuple((complex(a), complex(bc)) for a, bc in pairs)

    return chain._replace(
        onsite=complex(chain.onsite), left=side(chain.left), right=side(chain.right)
    )


def _solve_bits(chain, J, mu, k, alpha=None):
    """(r, t) of ``two_lead_solve`` as the hex of every part, so that the
    sign of a zero counts, or the name of the error it raises.  ``chain``
    may be a raw centre, attached at ``alpha``."""
    try:
        r, t = sl.two_lead_solve(chain, chain.alpha if alpha is None else alpha, J, mu, k)
    except sl.ScatterlabError as exc:
        return type(exc).__name__
    return tuple(x.hex() for z in (r, t) for x in (z.real, z.imag))


@settings(max_examples=300, deadline=None)
@given(case=_real_chains())
def test_real_chain_in_floats_is_bitwise_its_complex_copy(case):
    center, alpha, J, mu, k = case
    chain = steady.center_chain(center, alpha)
    assert all(type(x) is float for x in _chain_entries(chain))
    twin = _complex_copy(chain)
    assert _solve_bits(chain, J, mu, k) == _solve_bits(twin, J, mu, k)
    energy = float(sl.dispersion(J, mu, k))
    for side, twin_side in ((chain.left, twin.left), (chain.right, twin.right)):
        s, s_twin = steady._self_energy(side, energy), steady._self_energy(twin_side, energy)
        assert s.hex() == s_twin.real.hex() and s_twin.imag == 0


@st.composite
def _gain_loss_chains(draw):
    """(centre, alpha, J, mu, k) for a ``_tridiagonal_centres`` centre with
    gain or loss at alpha, so that its chain runs in extended precision."""
    center, alpha = draw(_tridiagonal_centres())
    center[alpha - 1, alpha - 1] += draw(st.sampled_from([1e-300, -0.5, 2.0])) * 1j
    J = draw(st.sampled_from([-1.0, -0.1, 0.3, 1.0]))
    k = draw(st.just(BAND_CENTRE_K) | _wave_vector)
    return center, alpha, J, draw(st.floats(-4, 4)), k


def _expression_bits(chain, J, mu, k):
    """``_solve_bits`` of the probe written out as one expression,
    onsite - E + 2J e^{iq} - S_left - S_right, an empty side's S being 0.0,
    in the chain's precision."""
    if isinstance(chain.onsite, np.clongdouble):
        band, lead, drive = steady._extended_lead_terms(J, k)
        energy = band + float(mu)
        s_left = steady._extended_self_energy(chain.left, energy) if chain.left else 0.0
        s_right = steady._extended_self_energy(chain.right, energy) if chain.right else 0.0
    else:
        band, lead, drive = steady._lead_terms(J, k)
        energy = band + float(mu)
        s_left = steady._self_energy(chain.left, energy) if chain.left else 0.0
        s_right = steady._self_energy(chain.right, energy) if chain.right else 0.0
    denom = chain.onsite - energy + lead - s_left - s_right
    if not denom:
        return "NumericalError"
    t = drive / denom
    return tuple(x.hex() for z in (complex(t - 1.0), complex(t)) for x in (z.real, z.imag))


@settings(max_examples=300, deadline=None)
@given(case=_real_chains() | _gain_loss_chains())
def test_chain_probe_is_bitwise_the_written_out_expression(case):
    # alpha at either end, inside, and on 1-site chains, where both sides
    # are empty; the raw centre is classified per call onto the same chain
    center, alpha, J, mu, k = case
    chain = steady.center_chain(center, alpha)
    assert chain is not None
    expected = _expression_bits(chain, J, mu, k)
    assert _solve_bits(chain, J, mu, k) == expected
    assert _solve_bits(center, J, mu, k, alpha) == expected


def test_zero_denominator_gives_an_infinite_self_energy_on_both_types():
    # at E = +0, a = -0 makes the denominator a - E - 0 = -0
    for a in (0.0, -0.0):
        for side in (((a, 3.0),), ((complex(a), complex(3.0)),)):
            assert steady._self_energy(side, 0.0) == math.inf
            # the next term is bc / -inf = -0
            s = steady._self_energy(side + ((1.0, 5.0),), 0.0)
            assert s == 0 and math.copysign(1.0, s.real) == -1.0


def test_zero_denominator_gives_an_infinite_extended_self_energy():
    # at E = +0, a = -0 makes the denominator a - E - 0 = -0, as on the float path
    energy = np.clongdouble(0.0)
    for a in (0.0, -0.0):
        side = ((np.clongdouble(a), np.clongdouble(3.0)),)
        outer = side + ((np.clongdouble(1.0), np.clongdouble(5.0)),)
        with np.errstate(all="raise"):
            assert steady._extended_self_energy(side, energy) == math.inf
            s = steady._extended_self_energy(outer, energy)
        assert s == 0 and math.copysign(1.0, s.real) == -1.0


@settings(max_examples=100, deadline=None)
@given(centre=_tridiagonal_centres(), data=st.data())
def test_a_chain_is_real_exactly_when_every_imaginary_part_is_zero(centre, data):
    center, alpha = centre
    if data.draw(st.booleans()):  # gain or loss on one site
        i = data.draw(st.integers(0, len(center) - 1))
        center[i, i] += data.draw(st.sampled_from([1e-300, -0.5, 2.0])) * 1j
    chain = steady.center_chain(center, alpha)
    # sites cut off by a zero bond are not on the chain, imaginary or not
    kept, _ = _reduced(center, alpha)
    bonds = np.diagonal(kept, 1) * np.diagonal(kept, -1)
    real = not (np.diagonal(kept).imag.any() or bonds.imag.any())
    assert {type(x) for x in _chain_entries(chain)} == {float if real else np.clongdouble}


def test_chain_singular_at_attachment_site_raises():
    # the gain level of test_two_lead_singular_at_attachment_site_raises
    chain = steady.center_chain(np.array([[2.0j]]), 1)
    assert chain == (1, 2.0j, (), ())
    with pytest.raises(sl.NumericalError, match="singular two-lead system"):
        sl.two_lead_solve(chain, 1, 1.0, 0.0, K)


def test_center_chain_lists_each_side_from_its_outer_end():
    center = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
    center += np.diag([0.5, 0.0, 2.0, 3.0], 1) + np.diag([0.5, 0.0, 2.0, 3.0], -1)
    # the zero bond between sites 2 and 3 hides sites 1 and 2 from site 3
    assert steady.center_chain(center, 3) == (3, 3.0, (), ((5.0, 9.0), (4.0, 4.0)))
    assert steady.center_chain(center, 1) == (1, 1.0, (), ((2.0, 0.25),))
    center[0, 2] = 1e-300
    assert steady.center_chain(center, 1) is None
    with pytest.raises(sl.PhysicsError, match="differs from the chain's 1"):
        sl.two_lead_solve(steady.center_chain(np.eye(2), 1), 2, 1.0, 0.0, K)


# Off the tridiagonal band: sites 2 and 3 of this star share the level
# 2.5 - 0.5 = 2, antisymmetric and dark from site 1.  The symmetric
# combination leaves the reduced centre [[0, sqrt 2], [sqrt 2, 3]].
_STAR = np.array([[0.0, 1.0, 1.0], [1.0, 2.5, 0.5], [1.0, 0.5, 2.5]], dtype=complex)
_STAR_REDUCED = np.array([[0.0, np.sqrt(2.0)], [np.sqrt(2.0), 3.0]])


def test_dark_level_amplitude_is_the_reduced_centre_value():
    # E = 2 on the dark level with lead term 2i at site 1: exactly singular
    a = _STAR - 2.0 * np.eye(3)
    a[0, 0] += 2j
    rhs = np.array([2j, 0.0, 0.0])
    (t, _) = steady._dark_level_amplitude(a, rhs, (1, 1))
    # reduced centre: t = 2i / (-2 + 2i - (sqrt 2)^2 / (3 - 2))
    assert t == pytest.approx(2j / (-4.0 + 2j), abs=1e-12)
    assert t == pytest.approx(0.2 - 0.4j, abs=1e-12)


def test_dark_level_amplitude_undetermined_when_the_null_vector_sits_on_alpha():
    # a left null vector on alpha: the drive is outside the range
    assert steady._dark_level_amplitude(np.zeros((1, 1), dtype=complex), np.array([2j]), (1, 1)) is None
    # only a right null vector, (1, -1) / sqrt 2, on alpha: psi_alpha is not unique
    a = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert steady._dark_level_amplitude(a, np.array([2j, 0.0]), (1, 1)) is None


def test_multichannel_singular_system_raises_when_dark_from_the_input_only(monkeypatch):
    # site 2 is cut off and its entry cancels its own lead's term J e^{iq}:
    # the null direction misses the input site, so the two-lead reading
    # (1, 1) is determined, but output lead 2 reads it, so multichannel is not
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    band, lead, drive = steady._lead_terms(-1.0, K)
    center = np.diag([0.0, band - 0.5 * lead])
    a = center - band * np.eye(2)
    a[0, 0] += lead
    a[1, 1] += 0.5 * lead
    rhs = np.array([drive, 0.0])
    assert steady._dark_level_amplitude(a, rhs, attachment_sites(2, None)) is None
    (t, _) = steady._dark_level_amplitude(a, rhs, attachment_sites(2, 1))
    assert t == pytest.approx(drive / (lead - band), abs=1e-12)
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(sl.NumericalError, match="singular scattering system"):
        sl.solve_multichannel(center, J=-1.0, mu=0.0, k=K)


def test_two_lead_dense_fallback_matches_the_reduced_centre(monkeypatch):
    # whether LAPACK flags an exactly singular matrix depends on BLAS
    # rounding, so the singular branch is forced
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    assert steady.center_chain(_STAR, 1) is None
    assert sl.dispersion(1.0, 2.0, K) == 2.0
    expected = sl.two_lead_solve(_STAR_REDUCED, 1, 1.0, 2.0, K)
    monkeypatch.setattr(np.linalg, "solve", singular)
    r, t = sl.two_lead_solve(_STAR, 1, 1.0, 2.0, K)
    assert r == pytest.approx(expected[0], abs=1e-12)
    assert t == pytest.approx(expected[1], abs=1e-12)


def _parent_two_lead_amplitude(center, alpha, J, mu, k):
    """t by the dense two-lead solve every centre took before the chain
    route, step for step, at the incident wave vector q of (J, k): the
    whole term 2J e^{iq} added to (h - E) at alpha in one addition."""
    hc = np.asarray(center, dtype=complex)
    n = hc.shape[0]
    q = incident_wave_vector(J, k)
    energy = sl.dispersion(J, mu, q)
    a = hc.copy()
    a.ravel()[:: n + 1] -= energy
    a[alpha - 1, alpha - 1] += 2.0 * J * np.exp(1j * q)
    rhs = np.zeros(n, dtype=complex)
    rhs[alpha - 1] = 2j * J * np.sin(q)
    return np.linalg.solve(a, rhs)[alpha - 1]


def _parent_dense_r2(center, alpha, J, mu, k):
    """|r|^2 by ``_parent_two_lead_amplitude``."""
    t = _parent_two_lead_amplitude(center, alpha, J, mu, k)
    return float(abs(t - 1.0) ** 2)


@pytest.mark.parametrize("gain_loss", [False, True], ids=["hermitian", "gain-loss"])
@pytest.mark.parametrize("J", [1.0, -0.3])
def test_dense_two_lead_solve_keeps_the_parent_bits(gain_loss, J):
    # the attachment-site solve adds 2 x (J e^{iq}) at alpha in one addition,
    # which is the parent's 2J e^{iq} exactly, so r and t keep every bit
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        center = m + m.conj().T
        if gain_loss:
            center[np.diag_indices(n)] += 1j * rng.normal(size=n)
        alpha = int(rng.integers(1, n + 1))
        mu, k = rng.uniform(-4.0, 4.0), rng.uniform(0.05, np.pi - 0.05)
        t = _parent_two_lead_amplitude(center, alpha, J, mu, k)
        got = sl.two_lead_solve(steady._DenseCenter(center), alpha, J, mu, k)
        assert got == (complex(t - 1.0), complex(t))


_FIG7F_CENTRE = sl.center_matrix(sl.NonHermitianSSHCenter(40.0, 2.0, 10.0, 4))


@pytest.mark.parametrize(
    "center, mus",
    [(_ssh(2.0), (0.0, 0.3, 1.7, 5.0)), (_FIG7F_CENTRE, (35.0, 38.7, 40.1, 42.0))],
    ids=["fig3a-chain", "fig7f-centre"],
)
@pytest.mark.parametrize("J", [-0.1, 0.1])
@pytest.mark.parametrize("k", [K, 0.7])
def test_dense_geometries_agree_with_the_chain_recursion(center, mus, J, k):
    # the dense solve over the attachment sites against the chain recursion:
    # two-lead on the centre forced down the dense route, and multichannel
    # as the two-lead chain at site 1 of the centre with one lead's term
    # J e^{iq} on every other site (site 1 carries two leads either way)
    n = len(center)
    sigma = J * np.exp(1j * incident_wave_vector(J, k))
    shifted = center + sigma * np.diag(np.arange(n) > 0)
    for mu in mus:
        for alpha in (1, 4, n):
            dense = sl.two_lead_solve(steady._DenseCenter(center), alpha, J, mu, k)
            chain = sl.two_lead_solve(center, alpha, J, mu, k)
            assert np.allclose(dense, chain, rtol=0, atol=1e-12)
        r_multi = sl.solve_multichannel(center, J=J, mu=mu, k=k).r
        r_chain, _ = sl.two_lead_solve(shifted, 1, J, mu, k)
        assert abs(r_multi - r_chain) <= 1e-12


def test_full_custom_centre_scans_by_the_dense_path():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    center = m + m.conj().T
    assert steady.center_chain(center, 2) is None
    scan = sl.mu_scan(center, alpha=2, J=1.0, mu_range=(-8.0, 8.0), resolution=1e-2)
    expected = [_parent_dense_r2(center, 2, 1.0, mu, K) for mu in scan.mu_grid]
    assert scan.reflectance.tolist() == expected
    assert len(scan.resonances) >= 3


def test_mu_scan_builds_the_chain_once(monkeypatch):
    built, original = [], steady.center_chain

    def counting(center, alpha):
        built.append(alpha)
        return original(center, alpha)

    monkeypatch.setattr(steady, "center_chain", counting)
    scan = sl.mu_scan(_ssh(2.0, cells=3), alpha=1, J=1.0, mu_range=(-6.5, 6.5), resolution=1e-2)
    assert len(scan.resonances) == 6
    assert built == [1]


def test_off_band_scan_classifies_the_centre_once(monkeypatch):
    # a triangle is off the tridiagonal band: every probe takes the dense LU,
    # and the band test runs once per scan, not at each grid point and step
    center = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], dtype=complex)
    built, original = [], steady.center_chain

    def counting(center, alpha):
        built.append(alpha)
        return original(center, alpha)

    monkeypatch.setattr(steady, "center_chain", counting)
    scan = sl.mu_scan(center, alpha=1, J=1.0, mu_range=(-3.0, 3.0), resolution=1e-2)
    assert scan.mu_grid.size == 601 and scan.resonances
    assert built == [1]
    monkeypatch.undo()
    expected = [abs(sl.two_lead_solve(center, 1, 1.0, mu, K)[0]) ** 2 for mu in scan.mu_grid]
    assert scan.reflectance.tolist() == expected


@st.composite
def _gauge_cases(draw):
    """(centre, alpha, mu, |J|): a random complex or gain/loss centre, on
    the tridiagonal band (the chain path) or with a bond off it (the
    dense path).  Entries and mu lie on a grid of step 0.1, so that no
    feature is narrow enough to resolve the 1e-17 rounding of cos(pi/2)."""
    dense = draw(st.booleans())
    entry = st.integers(-30, 30).map(lambda i: i / 10)
    if draw(st.booleans()):
        n = draw(st.integers(3 if dense else 1, 5))
        center = np.array(
            [[complex(draw(entry), draw(entry)) for _ in range(n)] for _ in range(n)]
        )
        if not dense:
            center = np.triu(np.tril(center, 1), -1)
    else:
        cells = draw(st.integers(2 if dense else 1, 3))
        center = sl.center_matrix(
            sl.NonHermitianSSHCenter(draw(entry), draw(entry), draw(entry), cells)
        )
    n = len(center)
    if dense:
        center[0, n - 1] = center[n - 1, 0] = 1.0
    assert (steady.center_chain(center, 1) is None) == dense
    alpha = draw(st.integers(1, n))
    mu = draw(st.integers(-40, 40)) / 10
    return center, alpha, mu, draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]))


def _close(a, b):
    return np.allclose(a, b, rtol=1e-7, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(case=_gauge_cases())
def test_probabilities_are_unchanged_when_the_lead_hopping_changes_sign(case):
    # (-1)^j on every lead site maps J to -J with the centre fixed, and at
    # the band centre the incident wave vector to -q: the same scattering
    # problem, so every probability agrees up to the rounding of cos(pi/2)
    center, alpha, mu, J = case
    try:
        two_lead = [sl.two_lead_solve(center, alpha, s * J, mu, K) for s in (1, -1)]
        multi = [sl.solve_multichannel(center, J=s * J, mu=mu, k=K) for s in (1, -1)]
    except sl.NumericalError:
        assume(False)
    probs = [
        [abs(r) ** 2, abs(t) ** 2, sol.reflectance, *sol.transmittance]
        for (r, t), sol in zip(two_lead, multi)
    ]
    assume(max(probs[0]) < 1e4)  # away from a lasing pole, where rounding is amplified
    assert _close(probs[0], probs[1])


@pytest.mark.parametrize(
    "J, mu_range", [(1e308, (0.0, 1.0)), (-1e308, (0.0, 1.0)), (5e307, (0.0, 1e308))]
)
def test_mu_scan_refuses_a_lead_band_beyond_the_float_range(J, mu_range):
    # 2|J| + max|mu| = inf: every grid point would give r = NaN
    with pytest.raises(sl.PhysicsError, match=r"band edge 2\|J\| \+ max\|mu\| is not finite"):
        sl.mu_scan(_ssh(2.0, cells=2), 1, J, mu_range, 0.5)


@pytest.mark.parametrize(
    "center",
    [[[0.0, 1e200], [1e200, 0.0]], [[1e200, 1e200, 0.0], [1e200, 0.0, 1.0], [0.0, 1.0, 0.0]]],
    ids=["two-site", "three-site"],
)
def test_overflowing_bond_products_take_the_dense_route(center):
    # the product 1e400 overflows: the recursion gave r = t = NaN, while the
    # LU sees site 1 locked into a bond far outside the band, which reflects
    center = np.array(center, dtype=complex)
    assert steady.center_chain(center, 1) is None
    r, t = sl.two_lead_solve(center, 1, 1.0, 0.0, K)
    assert r == pytest.approx(-1.0) and abs(t) < 1e-100
    scan = sl.mu_scan(center, 1, 1.0, (-1.0, 1.0), 0.25)
    np.testing.assert_allclose(scan.reflectance, 1.0)


_SSH_2_4_3 = sl.center_matrix(sl.SSHCenter(2.0, 4.0, 3))
_FIG7F_CENTRE = sl.center_matrix(sl.NonHermitianSSHCenter(40.0, 2.0, 10.0, 4))


@pytest.mark.parametrize(
    "solve",
    [
        lambda: sl.solve_multichannel(_SSH_2_4_3, 1e308, 0.0, K),
        lambda: sl.solve_multichannel(_SSH_2_4_3, np.nan, 0.0, K),
        lambda: sl.solve_multichannel(_SSH_2_4_3, -1.0, np.nan, K),
        lambda: sl.solve_multichannel(_SSH_2_4_3, -1.0, np.inf, K),
        lambda: sl.solve_multichannel(np.diag([np.inf, 0.0]), -1.0, 0.0, K),
        lambda: sl.resonant_eigenvalues(np.diag([np.nan, 0.0]), 1),
        lambda: sl.two_lead_solve(_SSH_2_4_3, 1, 1e308, 0.0, K),
        lambda: sl.two_lead_solve(_SSH_2_4_3, 1, np.nan, 0.0, K),
        lambda: sl.two_lead_solve(_SSH_2_4_3, 1, 1.0, np.nan, K),
        lambda: sl.two_lead_solve(_FIG7F_CENTRE, 1, 1e308, 0.0, K),
        lambda: sl.two_lead_solve(np.diag([0.0, np.nan]), 1, 1.0, 0.3, K),
        lambda: sl.mu_scan(np.diag([0.0, np.nan]), 1, 1.0, (-1.0, 1.0), 0.1),
    ],
    ids=[
        "multichannel-J-1e308", "multichannel-J-nan", "multichannel-mu-nan",
        "multichannel-mu-inf", "multichannel-inf-centre", "eigenvalues-nan-centre",
        "two-lead-J-1e308", "two-lead-J-nan", "two-lead-mu-nan", "two-lead-gain-loss-J-1e308",
        "two-lead-nan-centre", "mu-scan-nan-centre",
    ],
)
def test_steady_solvers_refuse_non_finite_or_overflowing_input(solve):
    # these gave NaN amplitudes, a numpy RuntimeWarning or LinAlgError
    with pytest.raises(sl.PhysicsError, match="finite"):
        solve()


def test_degeneracy_warning_takes_an_overflowing_gap_as_no_pair():
    # levels +-1.4e308: their difference overflows, which numpy warned about
    sol = sl.solve_multichannel(np.array([[1e308, 1e308], [1e308, -1e308]]), -0.1, 0.0, K)
    assert sol.warnings == ()


def test_center_chain_refuses_a_non_finite_onsite_entry():
    assert steady.center_chain(np.diag([np.inf, 0.0]), 1) is None
    assert steady.center_chain(np.diag([0.0, np.nan]), 1) is None


def test_mu_scan_rejects_a_grid_beyond_the_cap():
    # 1.4e16 points: refused before numpy is asked for the grid
    with pytest.raises(sl.PhysicsError, match="grid points, more than the cap"):
        sl.mu_scan(_ssh(2.0), 1, 1.0, (-7.0, 7.0), 1e-15)
    with pytest.raises(sl.PhysicsError, match="more than the cap"):
        sl.mu_scan(_ssh(2.0), 1, 1.0, (-1e308, 1e308), 1e-3)
