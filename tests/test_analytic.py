import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scatterlab as sl
from scatterlab import cli

# q strategies staying clear of the transition point and of q = sqrt(2),
# where the closed-form denominators blow up in floating point.
topological_q = st.floats(1e-3, 0.999, allow_nan=False)
any_q = st.one_of(
    st.floats(1e-3, 0.995),
    st.floats(1.005, 10.0).filter(lambda q: abs(2.0 - q * q) > 1e-2),
)


def test_zero_mode_probe_accepts_only_the_operating_point():
    sl.analytic.zero_mode_probe(sl.dispersion(-0.1, 0.0, np.pi / 2), np.pi / 2, -0.1)
    # k = -pi/2 is a J > 0 lead's incident wave at the band centre.  J -> -J
    # mirrors the network: a 12-cell v = 2, w = 4 chain measures p_1 =
    # 0.734657153058 at J = 0.1, k = -pi/2 and at J = -0.1, k = pi/2 alike
    sl.analytic.zero_mode_probe(sl.dispersion(0.1, 0.0, -np.pi / 2), -np.pi / 2, 0.1)
    # off E = 0, off the band centre, or the wave moving away from the centre
    for energy, k, J in (
        (1e-6, np.pi / 2, -0.1),
        (0.0, np.pi / 3, -0.1),
        (1e-6, -np.pi / 2, 0.1),
        (0.0, -np.pi / 2, -0.1),
        (0.0, np.pi / 2, 0.1),
    ):
        with pytest.raises(sl.PhysicsError, match="zero-mode laws hold at E = 0, k = pi/2"):
            sl.analytic.zero_mode_probe(energy, k, J)


def test_edge_state_small_chain():
    prof = sl.edge_state_amplitudes(0.5, 3)
    np.testing.assert_allclose(
        prof, np.sqrt(0.75) * np.array([1.0, -0.5, 0.25]), rtol=1e-15
    )


def test_edge_state_fully_localized_at_q_zero():
    prof = sl.edge_state_amplitudes(0.0, 4)
    np.testing.assert_array_equal(prof, [1.0, 0.0, 0.0, 0.0])


def test_edge_state_matches_dense_eigenvector():
    # The numerically exact near-zero mode hybridizes the two chain ends;
    # restricting it to the odd sublattice isolates the left edge state.
    w, v = np.linalg.eigh(sl.center_matrix(sl.SSHCenter(v=2.0, w=4.0, cells=20)))
    vec = v[:, np.argmin(np.abs(w))][0::2]
    vec = vec / np.linalg.norm(vec)
    prof = sl.edge_state_amplitudes(0.5, 20)
    prof = prof / np.linalg.norm(prof)
    assert abs(np.vdot(prof, vec)) > 0.999


def test_edge_state_rejects_delocalized_ratio():
    with pytest.raises(sl.PhysicsError):
        sl.edge_state_amplitudes(1.0, 5)
    with pytest.raises(sl.PhysicsError):
        sl.edge_state_amplitudes(1.5, 5)
    with pytest.raises(sl.PhysicsError):
        sl.edge_state_amplitudes(-0.1, 5)


@given(q=topological_q, cells=st.integers(2, 30))
def test_edge_state_adjacent_cell_ratio(q, cells):
    amps = sl.edge_state_amplitudes(q, cells)
    ratios = amps[1:] / amps[:-1]
    np.testing.assert_allclose(ratios, -q, rtol=1e-13, atol=0)


def test_predicted_probabilities_reference_point():
    assert sl.predicted_probabilities(0.5, 1) == pytest.approx(36 / 49, rel=1e-14)
    assert sl.predicted_probabilities(0.5, 0) == pytest.approx(1 / 49, rel=1e-14)
    assert sl.predicted_probabilities(0.5, 3) == pytest.approx(9 / 49, rel=1e-14)
    assert sl.predicted_probabilities(0.5, 2) == 0.0


def test_zero_mode_reflection_has_one_formula():
    # channel 0 of the zero-mode law is the reflection law, on fig 5's grid
    q_values = dict(cli.figure_configs("5"))["fig5"].sweep.q_values
    for q in q_values:
        if q != 1.0:
            assert sl.predicted_probabilities(q, 0) == sl.reflection_theory(q)


def test_predicted_probabilities_trivial_side():
    assert sl.predicted_probabilities(1.5, 0) == 1.0
    assert all(sl.predicted_probabilities(1.5, l) == 0.0 for l in range(1, 8))


def test_predicted_probabilities_rejects_transition_and_nonpositive():
    with pytest.raises(sl.PhysicsError):
        sl.predicted_probabilities(1.0, 1)
    with pytest.raises(sl.PhysicsError):
        sl.predicted_probabilities(0.0, 1)
    with pytest.raises(sl.PhysicsError):
        sl.predicted_probabilities(0.5, -1)


@given(q=topological_q)
def test_probabilities_sum_to_one(q):
    # independent check: explicit geometric partial sum, carried out to
    # numerical convergence
    total = sl.predicted_probabilities(q, 0)
    l = 1
    while True:
        term = sl.predicted_probabilities(q, l)
        total += term
        if l > 1 and term < 1e-18:
            break
        l += 2
    assert total == pytest.approx(1.0, abs=1e-12)


@given(q=any_q)
def test_zero_mode_amplitude_continuity(q):
    t1, r = sl.zero_mode_amplitudes(q)
    assert t1 - r == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("direction", [0.0, 2.0], ids=["below-sqrt2", "above-sqrt2"])
def test_zero_mode_amplitudes_next_to_sqrt2_are_finite(direction):
    # the doubles next to sqrt(2) square to 2 -+ 4.4e-16, never to 2.0
    q = float(np.nextafter(np.sqrt(2.0), direction))
    assert q * q != 2.0
    assert all(np.isfinite(sl.zero_mode_amplitudes(q)))


def test_visibility_theory_values():
    assert sl.visibility_theory(0.5) == pytest.approx(0.6, rel=1e-14)
    assert sl.visibility_theory(1e-9) == pytest.approx(1.0, abs=1e-12)
    assert sl.visibility_theory(0.9) == pytest.approx(0.19 / 1.81, rel=1e-12)


def test_visibility_theory_undefined_outside_topological_phase():
    for q in (1.0, 1.3, 0.0, -0.5):
        with pytest.raises(sl.PhysicsError):
            sl.visibility_theory(q)


@given(q=topological_q)
def test_visibility_consistent_with_probabilities(q):
    p1 = sl.predicted_probabilities(q, 1)
    p3 = sl.predicted_probabilities(q, 3)
    vis = abs(p3 - p1) / (p3 + p1)
    assert vis == pytest.approx(sl.visibility_theory(q), abs=1e-12)


def test_reflection_theory_values():
    assert sl.reflection_theory(0.5) == pytest.approx(1 / 49, rel=1e-14)
    assert sl.reflection_theory(1e-9) == pytest.approx(0.0, abs=1e-12)
    assert sl.reflection_theory(2.0) == 1.0
    with pytest.raises(sl.PhysicsError):
        sl.reflection_theory(1.0)


def test_nh_spectrum_reference_level():
    spec = sl.nh_spectrum(40.0, 2.0, 10.0, 4)
    lv = spec[0]
    assert lv.kappa == pytest.approx(np.pi / 5, rel=1e-15)
    # sqrt((40 - 2 cos(pi/5))^2 - 100), evaluated independently
    expected = np.sqrt((40.0 - 2.0 * np.cos(np.pi / 5)) ** 2 - 100.0)
    assert lv.real_energy == pytest.approx(expected, rel=1e-14)
    assert lv.real_energy == pytest.approx(37.05638021837479, rel=1e-12)
    assert type(lv.kappa) is float and type(lv.real_energy) is float


def test_nh_spectrum_hermitian_limit_continuity():
    spec = sl.nh_spectrum(40.0, 2.0, 1e-12, 4)
    assert len(spec) == 4
    for lv in spec:
        assert lv.real_energy == pytest.approx(
            abs(40.0 - 2.0 * np.cos(lv.kappa)), rel=1e-9
        )


def test_nh_spectrum_flags_broken_reality():
    # (1 - 0.5 cos(pi/2))^2 - 2^2 < 0: the only level has complex energy
    assert sl.nh_spectrum(1.0, 0.5, 2.0, 1) == ()
    # kappa = pi/4, pi/2, 3pi/4: (2 - cos kappa)^2 - 1.5^2 < 0 at pi/4 only
    spec = sl.nh_spectrum(2.0, 1.0, 1.5, 3)
    assert [lv.kappa for lv in spec] == [2 * np.pi / 4, 3 * np.pi / 4]
    for lv in spec:
        assert lv.real_energy == pytest.approx(
            np.sqrt((2.0 - np.cos(lv.kappa)) ** 2 - 2.25), rel=1e-14
        )


def test_nh_spectrum_rejects_nonpositive_parameters():
    with pytest.raises(sl.PhysicsError):
        sl.nh_spectrum(0.0, 1.0, 1.0, 2)
    with pytest.raises(sl.PhysicsError):
        sl.nh_spectrum(1.0, 1.0, -1.0, 2)
    # the closed form is for v >> w: v < w and v = w are outside it
    with pytest.raises(sl.PhysicsError, match="v >> w"):
        sl.nh_spectrum(2.0, 4.0, 0.5, 20)
    with pytest.raises(sl.PhysicsError, match="v >> w"):
        sl.nh_spectrum(4.0, 4.0, 0.5, 20)
    # (v - w cos kappa)^2 would overflow and drop a real level as NaN
    with pytest.raises(sl.PhysicsError, match="overflows the float range"):
        sl.nh_spectrum(1e200, 1e199, 1e200, 2)


# A NaN q or a non-finite chain parameter is outside every law's domain,
# so each law raises rather than answer NaN (nh_spectrum: NaN levels
# dropped as complex).
@pytest.mark.parametrize(
    "law",
    [
        lambda: sl.predicted_probabilities(np.nan, 1),
        lambda: sl.predicted_probabilities(np.nan, 0),
        lambda: sl.reflection_theory(np.nan),
        lambda: sl.zero_mode_amplitudes(np.nan),
        lambda: sl.zero_mode_amplitudes(np.inf),
        lambda: sl.nh_spectrum(np.nan, 2.0, 1.0, 2),
        lambda: sl.nh_spectrum(8.0, np.inf, 1.0, 2),
        lambda: sl.nh_spectrum(8.0, 2.0, np.nan, 2),
        lambda: sl.nh_spectrum(np.inf, 2.0, 1.0, 2),
    ],
    ids=["p1-nan", "p0-nan", "reflection-nan", "amplitudes-nan", "amplitudes-inf",
         "nh-v-nan", "nh-w-inf", "nh-gamma-nan", "nh-v-inf"],
)
def test_laws_refuse_non_finite_input(law):
    with pytest.raises(sl.PhysicsError):
        law()


def test_infinite_q_still_reflects_everything():
    assert sl.reflection_theory(np.inf) == 1.0
    assert [sl.predicted_probabilities(np.inf, l) for l in range(3)] == [1.0, 0.0, 0.0]


def test_nh_profile_lowest_level_symmetric():
    spec = sl.nh_spectrum(40.0, 2.0, 10.0, 4)
    prof = sl.nh_transmission_profile(spec[0], 4)
    np.testing.assert_allclose(prof, prof[::-1], rtol=1e-12)
    assert prof.max() == 1.0


def test_nh_profile_top_level_mirrors_lowest():
    spec = sl.nh_spectrum(40.0, 2.0, 10.0, 4)
    lo = sl.nh_transmission_profile(spec[0], 4)
    hi = sl.nh_transmission_profile(spec[3], 4)
    np.testing.assert_allclose(lo, hi, rtol=1e-12)


def test_nh_profile_second_level_node_structure():
    spec = sl.nh_spectrum(40.0, 2.0, 10.0, 4)
    prof = sl.nh_transmission_profile(spec[1], 4)
    kappa = 2 * np.pi / 5
    expected = np.sin(kappa * np.arange(1, 5)) ** 2
    np.testing.assert_allclose(prof, expected / expected.max(), rtol=1e-12)
