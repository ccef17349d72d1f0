import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scatterlab as sl

# q strategies staying clear of the transition point and of q = sqrt(2),
# where the closed-form denominators blow up in floating point.
topological_q = st.floats(1e-3, 0.999, allow_nan=False)
any_q = st.one_of(
    st.floats(1e-3, 0.995),
    st.floats(1.005, 10.0).filter(lambda q: abs(2.0 - q * q) > 1e-2),
)


def test_edge_state_small_chain():
    prof = sl.edge_state_amplitudes(0.5, 3)
    np.testing.assert_allclose(
        prof.amplitudes, np.sqrt(0.75) * np.array([1.0, -0.5, 0.25]), rtol=1e-15
    )


def test_edge_state_fully_localized_at_q_zero():
    prof = sl.edge_state_amplitudes(0.0, 4)
    np.testing.assert_array_equal(prof.amplitudes, [1.0, 0.0, 0.0, 0.0])


def test_edge_state_matches_dense_eigenvector():
    # The numerically exact near-zero mode hybridizes the two chain ends;
    # restricting it to the odd sublattice isolates the left edge state.
    w, v = np.linalg.eigh(sl.center_matrix(sl.SSHCenter(v=2.0, w=4.0, cells=20)))
    vec = v[:, np.argmin(np.abs(w))][0::2]
    vec = vec / np.linalg.norm(vec)
    prof = sl.edge_state_amplitudes(0.5, 20).amplitudes
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
    amps = sl.edge_state_amplitudes(q, cells).amplitudes
    ratios = amps[1:] / amps[:-1]
    np.testing.assert_allclose(ratios, -q, rtol=1e-13, atol=0)


def test_predicted_probabilities_reference_point():
    assert sl.predicted_probabilities(0.5, 1) == pytest.approx(36 / 49, rel=1e-14)
    assert sl.predicted_probabilities(0.5, 0) == pytest.approx(1 / 49, rel=1e-14)
    assert sl.predicted_probabilities(0.5, 3) == pytest.approx(9 / 49, rel=1e-14)
    assert sl.predicted_probabilities(0.5, 2) == 0.0


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
    lv = spec.level(0)
    assert lv.kappa == pytest.approx(np.pi / 5, rel=1e-15)
    # sqrt((40 - 2 cos(pi/5))^2 - 100), evaluated independently
    expected = np.sqrt((40.0 - 2.0 * np.cos(np.pi / 5)) ** 2 - 100.0)
    assert lv.real_energy == pytest.approx(expected, rel=1e-14)
    assert lv.real_energy == pytest.approx(37.05638021837479, rel=1e-12)
    assert np.tan(lv.phase) == pytest.approx(10.0 / lv.real_energy, rel=1e-12)


def test_nh_spectrum_hermitian_limit_continuity():
    spec = sl.nh_spectrum(40.0, 2.0, 1e-12, 4)
    for lv in spec.levels:
        assert lv.is_real
        assert lv.real_energy == pytest.approx(
            abs(40.0 - 2.0 * np.cos(lv.kappa)), rel=1e-9
        )


def test_nh_spectrum_flags_broken_reality():
    spec = sl.nh_spectrum(1.0, 0.5, 2.0, 1)
    lv = spec.level(0)
    assert not lv.is_real
    assert spec.real_levels() == ()
    with pytest.raises(sl.PhysicsError):
        lv.real_energy  # noqa: B018
    with pytest.raises(sl.PhysicsError):
        sl.nh_transmission_profile(lv, 1)


def test_nh_spectrum_rejects_nonpositive_parameters():
    with pytest.raises(sl.PhysicsError):
        sl.nh_spectrum(0.0, 1.0, 1.0, 2)
    with pytest.raises(sl.PhysicsError):
        sl.nh_spectrum(1.0, 1.0, -1.0, 2)


def test_nh_profile_lowest_level_symmetric():
    spec = sl.nh_spectrum(40.0, 2.0, 10.0, 4)
    prof = sl.nh_transmission_profile(spec.level(0), 4)
    np.testing.assert_allclose(prof, prof[::-1], rtol=1e-12)
    assert prof.max() == 1.0


def test_nh_profile_top_level_mirrors_lowest():
    spec = sl.nh_spectrum(40.0, 2.0, 10.0, 4)
    lo = sl.nh_transmission_profile(spec.level(0), 4)
    hi = sl.nh_transmission_profile(spec.level(3), 4)
    np.testing.assert_allclose(lo, hi, rtol=1e-12)


def test_nh_profile_second_level_node_structure():
    spec = sl.nh_spectrum(40.0, 2.0, 10.0, 4)
    prof = sl.nh_transmission_profile(spec.level(1), 4)
    kappa = 2 * np.pi / 5
    expected = np.sin(kappa * np.arange(1, 5)) ** 2
    np.testing.assert_allclose(prof, expected / expected.max(), rtol=1e-12)
