import concurrent.futures
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scatterlab as sl
from scatterlab import cli
from scatterlab.output import _CSV_BLOCK, CSV_VERSION_LINE, write_csv


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _small_dynamics_config():
    return {
        "center": {"type": "ssh", "v": 2.0, "w": 4.0, "cells": 4},
        "lead": {"J": -0.1, "mu": 0.0, "length": 60},
        "packet": {"center_site": -30, "sigma": 6, "k": "pi/2"},
    }


def _small_steady_config():
    return {
        "center": {"type": "ssh", "v": 6.0, "w": 4.0, "cells": 20},
        "lead": {"J": -0.01, "mu": 0.0},
        "steady": {"k": "pi/2"},
    }


def _small_mu_scan_config():
    return {
        "center": {"type": "ssh", "v": 2.0, "w": 4.0, "cells": 3},
        "scan": {"mu_min": -6.5, "mu_max": 6.5, "step": 0.002, "alpha": 1, "J": 1.0},
    }


def _small_q_sweep_config():
    return {
        "sweep": {"q_values": [0.5, 1.0, 1.5], "w": 4.0, "cells": 2},
        "lead": {"J": -0.1, "mu": 0.0, "length": 40},
        "packet": {"center_site": -15, "sigma": 4, "k": "pi/2"},
    }


def test_figure_3a_expansion():
    ((name, cfg),) = cli.figure_configs("3a")
    assert name == "fig3a"
    assert cfg.mode == "dynamics"
    assert cfg.center == sl.SSHCenter(v=2.0, w=4.0, cells=20)
    assert cfg.lead == sl.LeadSpec(J=-0.1, mu=0.0, length=200)
    assert cfg.packet.center_site == -100
    assert cfg.packet.sigma == 20.0
    assert cfg.packet.k == pytest.approx(np.pi / 2)


def test_figure_6_expansion_sets_resonant_mu():
    ((_, cfg),) = cli.figure_configs("6b")
    level = sl.nh_spectrum(40.0, 2.0, 10.0, 4)[1]
    assert cfg.lead.mu == pytest.approx(level.real_energy)
    assert cfg.center == sl.NonHermitianSSHCenter(v=40.0, w=2.0, gamma=10.0, cells=4)


def test_figure_7_expands_to_five_scans():
    jobs = cli.figure_configs("7")
    assert [name for name, _ in jobs] == ["fig7b", "fig7c", "fig7d", "fig7e", "fig7f"]
    for _, cfg in jobs:
        assert cfg.mode == "mu-scan"
        assert cfg.scan.J == 1.0
        assert cfg.scan.k == pytest.approx(np.pi / 2)
        assert cfg.scan.step == 1e-3


def test_figure_5_sweep_includes_marked_transition():
    ((_, cfg),) = cli.figure_configs("5")
    assert cfg.mode == "q-sweep"
    assert 1.0 in cfg.sweep.q_values
    assert min(cfg.sweep.q_values) == pytest.approx(0.1)
    assert max(cfg.sweep.q_values) == pytest.approx(2.0)


def test_parse_config_happy_path(tmp_path):
    path = _write(tmp_path, _small_dynamics_config())
    cfg = cli.parse_config(path, "dynamics")
    assert cfg.center == sl.SSHCenter(v=2.0, w=4.0, cells=4)
    assert cfg.packet.k == pytest.approx(np.pi / 2)


def test_parse_config_rejects_unknown_key(tmp_path):
    payload = _small_dynamics_config()
    payload["lead"]["hopping"] = 1.0
    path = _write(tmp_path, payload)
    with pytest.raises(sl.ConfigError, match="unknown key 'hopping' in section 'lead'"):
        cli.parse_config(path, "dynamics")


def test_parse_config_rejects_unknown_section(tmp_path):
    payload = _small_dynamics_config()
    payload["extras"] = {}
    path = _write(tmp_path, payload)
    with pytest.raises(sl.ConfigError, match="unknown key 'extras'"):
        cli.parse_config(path, "dynamics")


def test_parse_config_names_missing_field(tmp_path):
    payload = _small_dynamics_config()
    del payload["packet"]["sigma"]
    path = _write(tmp_path, payload)
    with pytest.raises(sl.ConfigError, match="missing required field 'sigma'"):
        cli.parse_config(path, "dynamics")


def test_parse_config_rejects_contradictory_section(tmp_path):
    payload = _small_dynamics_config()
    payload["scan"] = {"mu_min": 0, "mu_max": 1, "step": 0.1}
    path = _write(tmp_path, payload)
    with pytest.raises(sl.ConfigError, match="contradicts mode 'dynamics'"):
        cli.parse_config(path, "dynamics")


def test_parse_config_rejects_mode_mismatch(tmp_path):
    payload = _small_dynamics_config()
    payload["mode"] = "steady"
    path = _write(tmp_path, payload)
    with pytest.raises(sl.ConfigError, match="declares mode 'steady'"):
        cli.parse_config(path, "dynamics")


def test_parse_config_malformed_file_names_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "center": [,]\n}')
    with pytest.raises(sl.ConfigError, match="line 2"):
        cli.parse_config(path, "dynamics")


def test_parse_config_custom_complex_matrix(tmp_path):
    payload = {
        "center": {"type": "custom", "matrix": [[0.0, [0.0, 2.0]], [[0.0, -2.0], 0.0]]},
        "lead": {"J": -0.5, "length": 30},
        "packet": {"center_site": -10, "sigma": 2, "k": 1.2},
    }
    cfg = cli.parse_config(_write(tmp_path, payload), "dynamics")
    np.testing.assert_array_equal(
        cfg.center.matrix, np.array([[0, 2j], [-2j, 0]], dtype=complex)
    )


def test_parse_config_angle_strings(tmp_path):
    payload = _small_dynamics_config()
    payload["packet"]["k"] = "2*pi/5"
    cfg = cli.parse_config(_write(tmp_path, payload), "dynamics")
    assert cfg.packet.k == pytest.approx(2 * np.pi / 5)
    for k, value in [("-pi/2", -np.pi / 2), ("-3*pi/4", -3 * np.pi / 4)]:
        payload["packet"]["k"] = k
        assert cli.parse_config(_write(tmp_path, payload), "dynamics").packet.k == value
    payload["packet"]["k"] = "half pi"
    with pytest.raises(sl.ConfigError, match="packet.k"):
        cli.parse_config(_write(tmp_path, payload), "dynamics")
    for k, message in [
        ("pi/0", "zero denominator in 'pi/0'"),
        ("9" * 400 + "*pi", "expected a finite number, got inf"),
    ]:
        payload["packet"]["k"] = k
        with pytest.raises(sl.ConfigError) as err:
            cli.parse_config(_write(tmp_path, payload), "dynamics")
        assert str(err.value) == f"packet.k: {message}"


# One valid config per mode; each section case below edits one section.
_MODE_CONFIGS = {
    "steady": _small_steady_config,
    "dynamics": _small_dynamics_config,
    "mu-scan": _small_mu_scan_config,
    "q-sweep": _small_q_sweep_config,
}

# (mode, section, valid section, a required field or None, a wrongly typed
# entry, the message it gives)
_SECTION_CASES = {
    "center-ssh": (
        "steady", "center", {"type": "ssh", "v": 6.0, "w": 4.0, "cells": 20}, "v",
        ("cells", 2.5), "center.cells: expected an integer, got 2.5",
    ),
    "center-nh_ssh": (
        "dynamics", "center", {"type": "nh_ssh", "v": 2.0, "w": 4.0, "gamma": 0.5, "cells": 4},
        "gamma", ("gamma", "x"), "center.gamma: expected a number, got 'x'",
    ),
    "center-custom": (
        "mu-scan", "center", {"type": "custom", "matrix": [[0.0, 1.0], [1.0, 0.0]]}, "matrix",
        ("matrix", "abc"), "center.matrix must be a non-empty list of rows",
    ),
    "lead": (
        "dynamics", "lead", {"J": -0.1, "mu": 0.0, "length": 60}, "J",
        ("length", 1.5), "lead.length: expected an integer, got 1.5",
    ),
    "packet": (
        "dynamics", "packet", {"center_site": -30, "sigma": 6, "k": "pi/2"}, "sigma",
        ("k", "half pi"), "packet.k: expected a number or a 'pi/2'-style string, got 'half pi'",
    ),
    "steady": (
        "steady", "steady", {"k": "pi/2"}, "k",
        ("k", [1]), "steady.k: expected a number or a 'pi/2'-style string, got [1]",
    ),
    "scan": (
        "mu-scan", "scan", {"mu_min": -1.0, "mu_max": 1.0, "step": 0.5}, "step",
        ("J", "1"), "scan.J: expected a number, got '1'",
    ),
    "sweep": (
        "q-sweep", "sweep", {"q_values": [0.5], "w": 4.0, "cells": 2}, "q_values",
        ("q_values", []), "sweep.q_values must be a non-empty list of numbers",
    ),
    "propagator": (
        "dynamics", "propagator", {"snapshot_stride": 2.0, "t_max": None}, None,
        ("t_max", "x"), "propagator.t_max: expected a number, got 'x'",
    ),
}


@pytest.mark.parametrize("case", sorted(_SECTION_CASES))
def test_section_schema_messages(tmp_path, case):
    mode, name, section, required, (key, bad), message = _SECTION_CASES[case]

    def parse(edit):
        payload = _MODE_CONFIGS[mode]()
        payload[name] = dict(section)
        edit(payload[name])
        return cli.parse_config(_write(tmp_path, payload), mode)

    assert getattr(parse(lambda s: None), name) is not None
    with pytest.raises(sl.ConfigError) as err:
        parse(lambda s: s.update(extra=1.0))
    assert str(err.value) == f"unknown key 'extra' in section '{name}'"
    if required is not None:
        with pytest.raises(sl.ConfigError) as err:
            parse(lambda s: s.pop(required))
        assert str(err.value) == f"missing required field '{required}' in section '{name}'"
    else:  # every propagator field has a default
        assert parse(lambda s: s.clear()).propagator == sl.PropagatorConfig()
    with pytest.raises(sl.ConfigError) as err:
        parse(lambda s: s.update({key: bad}))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "center, key",
    [
        ({"type": "ssh", "v": 2.0, "w": 4.0, "cells": 4, "gamma": 10}, "gamma"),
        ({"type": "ssh", "v": 2.0, "w": 4.0, "cells": 4, "matrix": [[1]]}, "matrix"),
        ({"type": "nh_ssh", "v": 2.0, "w": 4.0, "gamma": 1.0, "cells": 4, "matrix": [[1]]},
         "matrix"),
        ({"type": "custom", "matrix": [[1.0]], "cells": 4}, "cells"),
    ],
    ids=["ssh-gamma", "ssh-matrix", "nh_ssh-matrix", "custom-cells"],
)
def test_center_rejects_keys_of_another_type(tmp_path, center, key):
    payload = _small_dynamics_config()
    payload["center"] = center
    with pytest.raises(sl.ConfigError) as err:
        cli.parse_config(_write(tmp_path, payload), "dynamics")
    assert str(err.value) == f"unknown key '{key}' in section 'center'"


@pytest.mark.parametrize(
    "value, kind", [(5, "int"), ("J", "str"), ([], "list"), (None, "NoneType")]
)
def test_non_object_section_is_a_config_error(tmp_path, capsys, value, kind):
    payload = _small_dynamics_config()
    payload["lead"] = value
    path = _write(tmp_path, payload)
    assert cli.main(["dynamics", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"section 'lead' must be a JSON object, got {kind}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cell, message",
    [
        (["a", 1.0], "center.matrix[0][0]: expected a number, got 'a'"),
        ([True, 1.0], "center.matrix[0][0]: expected a number, got True"),
        ([1.0, None], "center.matrix[0][0]: expected a number, got None"),
        ([1, 2, 3], "center.matrix[0][0]: complex entries are [re, im] pairs"),
    ],
    ids=["string", "bool", "null", "triple"],
)
def test_custom_matrix_pair_parts_must_be_numbers(tmp_path, cell, message):
    payload = _small_dynamics_config()
    payload["center"] = {"type": "custom", "matrix": [[cell]]}
    with pytest.raises(sl.ConfigError) as err:
        cli.parse_config(_write(tmp_path, payload), "dynamics")
    assert str(err.value) == message


def _edited(mode, **sections):
    """The small config of ``mode`` with ``sections`` replaced; a section
    given as None is dropped."""
    config = {**_MODE_CONFIGS[mode](), **sections}
    return {name: section for name, section in config.items() if section is not None}


_SSH_FIELDS = {"v": 6.0, "w": 4.0, "cells": 20}
_CENTER_TYPES = "'ssh', 'nh_ssh', or 'custom'"


@pytest.mark.parametrize(
    "mode, config, message",
    [
        ("steady", _edited("steady", center={"type": "custom", "matrix": [1.0]}),
         "center.matrix row 0 is not a list"),
        ("steady", _edited("steady", center={"type": "custom", "matrix": [[1.0, 2.0], [1.0]]}),
         "center.matrix: setting an array element with a sequence"),
        ("steady", _edited("steady", center={"type": "custom", "matrix": [[1.0, 2.0]]}),
         "center.matrix: custom center matrix must be square, got shape (1, 2)"),
        ("q-sweep", _edited("q-sweep", sweep={"q_values": [0.5, 0.0]}),
         "sweep.q_values must be positive"),
        ("steady", _edited("steady", center=_SSH_FIELDS),
         "missing required field 'type' in section 'center'"),
        ("steady", _edited("steady", center={"type": "xyz", **_SSH_FIELDS}),
         f"center.type must be {_CENTER_TYPES}, got 'xyz'"),
        ("steady", _edited("steady", center={"type": ["ssh"], **_SSH_FIELDS}),
         f"center.type must be {_CENTER_TYPES}, got ['ssh']"),
        ("dynamics", [_small_dynamics_config()], "config root must be a JSON object, got list"),
        ("dynamics", _edited("dynamics", packet=None),
         "mode 'dynamics' requires a 'packet' section"),
    ],
    ids=["row-not-a-list", "ragged-matrix", "non-square-matrix", "q-zero", "center-without-type",
         "unknown-center-type", "unhashable-center-type", "root-a-list", "missing-section"],
)
def test_malformed_config_is_refused_before_any_output(tmp_path, capsys, mode, config, message):
    out = tmp_path / "o"
    assert cli.main([mode, "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [("lead", "J", float("inf")), ("lead", "mu", float("nan")), ("center", "v", float("-inf")),
     ("steady", "k", float("inf")),
     pytest.param("lead", "mu", 10**400, id="lead-mu-beyond-float-range")],
)
def test_non_finite_number_is_a_config_error(tmp_path, capsys, section, key, value):
    payload = _small_steady_config()
    payload[section][key] = value  # json writes Infinity / NaN, which json reads back
    path = _write(tmp_path, payload)
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"{section}.{key}: expected a finite number, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_store_states_is_an_unknown_propagator_key(tmp_path, capsys):
    payload = _small_dynamics_config()
    payload["propagator"] = {"store_states": True}
    path = _write(tmp_path, payload)
    assert cli.main(["dynamics", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'store_states' in section 'propagator'" in capsys.readouterr().err


def test_input_site_is_an_unknown_steady_key(tmp_path, capsys):
    # the input lead sits at site 1, as in the network NetworkSpec builds
    payload = _small_steady_config()
    payload["steady"]["input_site"] = 1
    path = _write(tmp_path, payload)
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'input_site' in section 'steady'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_k_is_an_unknown_scan_key(tmp_path, capsys):
    # a mu-scan runs at the band centre, where each reflection zero sits on
    # a centre level; its k is echoed in summary.json but set by no config
    payload = _small_mu_scan_config()
    payload["scan"]["k"] = "pi/3"
    path = _write(tmp_path, payload)
    assert cli.main(["mu-scan", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'k' in section 'scan'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_snapshot_budget_is_a_physics_error(tmp_path, capsys, monkeypatch):
    # a budget of 1,000 values refuses the 181 default snapshots of this
    # 500-site network before propagating
    monkeypatch.setattr(sl.dynamics, "_MAX_SNAPSHOT_VALUES", 1_000)
    path = _write(tmp_path, _small_dynamics_config())
    argv = ["dynamics", "--config", str(path), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 3
    assert "more than the cap of 1,000" in capsys.readouterr().err
    assert not (tmp_path / "o" / "channels.csv").exists()


@pytest.mark.parametrize("length", [10**19, 10**400], ids=["1e19", "beyond-float"])
def test_oversized_lead_is_refused_before_assembly(tmp_path, capsys, length):
    # 9 leads of `length` sites: refused by the snapshot budget, before any
    # array of the network's dimension is asked for
    payload = _small_dynamics_config()
    payload["lead"]["length"] = length
    path = _write(tmp_path, payload)
    out = tmp_path / "o"
    assert cli.main(["dynamics", "--config", str(path), "--out", str(out)]) == 3
    assert "more than the cap" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# 2e11 sites: dynamics is refused by the snapshot budget and the steady
# engines by center_matrix's cap, each before any array or tuple of that
# size is asked for.
@pytest.mark.parametrize(
    "mode, message",
    [("dynamics", "more than the cap of 25,000,000"),
     ("steady", "center of 200,000,000,000 sites exceeds the dense-matrix cap of 2,048"),
     ("mu-scan", "center of 200,000,000,000 sites exceeds the dense-matrix cap of 2,048")],
    ids=["dynamics", "steady", "mu-scan"],
)
def test_oversized_center_is_refused_before_allocation(tmp_path, capsys, mode, message):
    payload = _MODE_CONFIGS[mode]()
    payload["center"]["cells"] = 10**11
    out = tmp_path / "o"
    assert cli.main([mode, "--config", str(_write(tmp_path, payload)), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


# The stride is propagator.snapshot_stride in a config; --workers exists
# only where a pool can start (q-sweep, and figure 5 of reproduce-fig).
@pytest.mark.parametrize("mode", ["steady", "dynamics", "mu-scan", "q-sweep", "reproduce-fig"])
def test_snapshot_stride_is_no_option_without_a_propagator(mode, capsys):
    argv = [mode, "3a"] if mode == "reproduce-fig" else [mode, "--config", "c.json"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--snapshot-stride", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --snapshot-stride 5" in capsys.readouterr().err
    if mode in ("steady", "dynamics", "mu-scan"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_steady_run_trivial_phase_reflects_everything(tmp_path):
    path = _write(tmp_path, _small_steady_config())
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["r"]["re"] < -0.999
    assert summary["reflectance"] > 0.999
    assert abs(summary["flux_error"]) < 1e-10
    lines = (out / "amplitudes.csv").read_text().splitlines()
    assert lines[0] == CSV_VERSION_LINE
    assert (out / "final_state.svg").exists()


def test_steady_refuses_a_lead_length(tmp_path, capsys):
    # a steady solve treats its leads as semi-infinite: a length would be
    # accepted and do nothing
    payload = _small_steady_config()
    payload["lead"]["length"] = 5
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(_write(tmp_path, payload)), "--out", str(out)]) == 2
    assert (
        "configuration error: lead.length has no effect in a steady run: its leads are "
        "semi-infinite"
    ) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, out, named",
    [("reproduce-fig", "file", "file/fig7b"), ("steady", "file/x", "file/x")],
    ids=["reproduce-fig-7-into-a-file", "steady-below-a-file"],
)
def test_an_output_path_that_cannot_be_a_directory_is_a_config_error(
    tmp_path, capsys, mode, out, named
):
    # creating the directory raised NotADirectoryError with a traceback (exit 1)
    (tmp_path / "file").write_text("")
    config = str(_write(tmp_path, _small_steady_config()))
    args = ["7"] if mode == "reproduce-fig" else ["--config", config]
    assert cli.main([mode, *args, "--out", str(tmp_path / out)]) == cli.EXIT_CONFIG == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot create output directory {tmp_path / named}" in err
    assert (tmp_path / "file").read_text() == ""


def test_custom_center_summary_names_its_size(tmp_path):
    config = {
        "center": {"type": "custom", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        "lead": {"J": -0.5},
        "steady": {"k": "pi/2"},
    }
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["center"] == {
        "n_sites": 2, "type": "custom"
    }


def test_dynamics_refuses_an_outgoing_packet(tmp_path, capsys):
    # J < 0 with k = -pi/2 sends the packet away from the centre: nothing
    # would scatter, so the run is refused before any artifact is written
    payload = _small_dynamics_config()
    payload["packet"]["k"] = "-pi/2"
    out = tmp_path / "out"
    argv = ["dynamics", "--config", str(_write(tmp_path, payload)), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_PHYSICS == 3
    assert "packet group velocity points away from the scattering center" in (
        capsys.readouterr().err
    )
    assert list(out.iterdir()) == []


def test_packet_centre_beyond_the_float_range_is_refused(tmp_path, capsys):
    # a 401-digit centre overflowed the stop time's float sum (exit 1)
    payload = _small_dynamics_config()
    payload["packet"]["center_site"] = -(10**400)
    out = tmp_path / "out"
    argv = ["dynamics", "--config", str(_write(tmp_path, payload)), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_PHYSICS == 3
    assert "overflows the 60-site input lead" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_packet_width_whose_square_overflows_is_refused_by_the_lead_fit(tmp_path, capsys):
    # sigma**2 raised OverflowError out of the packet spec (exit 1)
    payload = _small_dynamics_config()
    payload["packet"]["sigma"] = 1e200
    out = tmp_path / "out"
    argv = ["dynamics", "--config", str(_write(tmp_path, payload)), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_PHYSICS == 3
    assert "overflows the 60-site input lead" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_dynamics_run_artifacts_and_determinism(tmp_path):
    # 12 cells separate the two edge states enough for p_1 to reach its
    # semi-infinite value 36/49; at 4 cells the hybridised pair gives 0.08
    payload = _small_dynamics_config()
    payload["center"]["cells"] = 12
    payload["lead"]["length"] = 80
    path = _write(tmp_path, payload)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert cli.main(["dynamics", "--config", str(path), "--out", str(out)]) == 0
    for name in ("channels.csv", "trajectory.csv", "snapshots.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "trajectory.svg").read_bytes() == (out2 / "trajectory.svg").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["channel_probabilities"][1] == pytest.approx(36 / 49, abs=0.02)
    # measured columns carry their theory siblings
    header = (out1 / "channels.csv").read_text().splitlines()[1]
    assert header == "channel,probability,probability_theory"


def test_mu_scan_run(tmp_path):
    config = _small_mu_scan_config()
    out = tmp_path / "out"
    assert cli.main(["mu-scan", "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    vals = np.linalg.eigvalsh(sl.center_matrix(sl.SSHCenter(2.0, 4.0, 3)))
    for mu_star in summary["resonances"]:
        assert np.min(np.abs(vals - mu_star)) < 1e-3
    assert (out / "scan.csv").exists()
    assert (out / "resonances.csv").exists()
    assert (out / "reflection.svg").exists()


@pytest.mark.parametrize(
    "mode, config, calls",
    [("mu-scan", _small_mu_scan_config, {"eig": 1, "eigvals": 0}),
     ("steady", _small_steady_config, {"eig": 0, "eigvals": 1})],
)
def test_each_run_diagonalises_its_centre_once(tmp_path, monkeypatch, mode, config, calls):
    counted = {name: 0 for name in calls}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    path = _write(tmp_path, config())
    assert cli.main([mode, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert counted == calls


def test_mu_scan_summary_names_the_dark_states(tmp_path):
    # site basis eigenstates: level 2 has no weight at the attachment site 1
    config = {
        "center": {"type": "custom", "matrix": [[1.0, 0.0], [0.0, 2.0]]},
        "scan": {"mu_min": 0.0, "mu_max": 3.0, "step": 1e-3},
    }
    out = tmp_path / "out"
    assert cli.main(["mu-scan", "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dark_states"] == ["dark state at mu=2"]
    assert summary["resonances"] == [pytest.approx(1.0, abs=1e-6)]


def test_mu_scan_summary_names_the_dark_level_of_a_degenerate_pair(tmp_path):
    # the triangle's twofold level -1 meets site 1 along one direction: one
    # level of the pair is dark, whatever basis eig picks for the pair
    config = {
        "center": {"type": "custom", "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
        "scan": {"mu_min": -2, "mu_max": 3, "step": 0.5},
    }
    out = tmp_path / "out"
    assert cli.main(["mu-scan", "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dark_states"] == ["dark state at mu=-1"]


def test_mu_scan_of_a_gain_loss_chain_with_v_below_w_has_no_analytic_energy(tmp_path):
    # the gain/loss closed form holds for v >> w; with v < w it used to
    # answer 0.1-0.2 away from every resonance
    config = {
        "center": {"type": "nh_ssh", "v": 2.0, "w": 4.0, "gamma": 0.5, "cells": 20},
        "scan": {"mu_min": -3.0, "mu_max": 3.0, "step": 1e-3},
    }
    out = tmp_path / "out"
    assert cli.main(["mu-scan", "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    assert len(_csv_column(out / "resonances.csv", "mu_star")) > 0
    assert set(_csv_column(out / "resonances.csv", "analytic_energy")) == {"nan"}
    assert set(_csv_column(out / "resonances.csv", "analytic_distance")) == {"nan"}


@pytest.mark.parametrize("J", [1e308, -1e308])
def test_mu_scan_refuses_a_scan_lead_beyond_the_float_range(tmp_path, capsys, J):
    # every row of scan.csv used to be NaN, with exit 0
    config = _small_mu_scan_config()
    config["scan"]["J"] = J
    out = tmp_path / "out"
    rc = cli.main(["mu-scan", "--config", str(_write(tmp_path, config)), "--out", str(out)])
    assert rc == cli.EXIT_PHYSICS == 3
    assert "scan lead band edge 2|J| + max|mu| is not finite" in capsys.readouterr().err
    assert not (out / "scan.csv").exists()


def test_mu_scan_refuses_a_grid_beyond_the_cap(tmp_path, capsys):
    # 1.4e16 grid points on [-7, 7]: a physics error before any allocation
    config = {
        "center": {"type": "ssh", "v": 2.0, "w": 4.0, "cells": 3},
        "scan": {"mu_min": -7.0, "mu_max": 7.0, "step": 1e-15},
    }
    out = tmp_path / "out"
    rc = cli.main(["mu-scan", "--config", str(_write(tmp_path, config)), "--out", str(out)])
    assert rc == cli.EXIT_PHYSICS == 3
    assert "more than the cap of 10,000,000" in capsys.readouterr().err
    assert not (out / "scan.csv").exists()


def test_mu_scan_refuses_a_grid_that_cannot_advance(tmp_path, capsys):
    # at 1e17 the float spacing is 16: a step of 1 repeats grid points
    config = {
        "center": {"type": "ssh", "v": 2.0, "w": 4.0, "cells": 2},
        "scan": {"mu_min": 1e17, "mu_max": 1.00000000000000016e17, "step": 1.0},
    }
    out = tmp_path / "out"
    rc = cli.main(["mu-scan", "--config", str(_write(tmp_path, config)), "--out", str(out)])
    assert rc == cli.EXIT_PHYSICS == 3
    err = capsys.readouterr().err
    assert "at step 1.0 does not advance: consecutive grid points coincide" in err
    assert not (out / "scan.csv").exists()


# A window that holds no level writes a header-only resonances.csv; the
# gain/loss centre takes the analytic-levels path with levels outside it.
@pytest.mark.parametrize(
    "center",
    [{"type": "ssh", "v": 2.0, "w": 4.0, "cells": 2},
     {"type": "nh_ssh", "v": 8.0, "w": 2.0, "gamma": 1.0, "cells": 2}],
    ids=["ssh", "nh_ssh"],
)
def test_mu_scan_without_a_resonance_writes_the_header_only(tmp_path, center):
    config = {"center": center, "scan": {"mu_min": 20.0, "mu_max": 21.0, "step": 0.01}}
    out = tmp_path / "out"
    assert cli.main(["mu-scan", "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    assert (out / "resonances.csv").read_bytes() == (
        b"# scatterlab-csv v1\nmu_star,reflectance_min,nearest_eigenvalue,"
        b"eigenvalue_distance,analytic_energy,analytic_distance\n"
    )
    has_levels = "analytic levels" in (out / "reflection.svg").read_text()
    assert has_levels == (center["type"] == "nh_ssh")


def _csv_column(path, name):
    """Column ``name`` of a scatterlab CSV, as the printed strings."""
    header, *rows = path.read_text().splitlines()[1:]
    index = header.split(",").index(name)
    return [row.split(",")[index] for row in rows]


# The steady overlay at each edge of the zero-mode law's domain, as the
# code that guarded the law in the CLI printed it: w = 0, v < 0, q = 1 and
# E != 0 have no theory; q > 1 reflects everything; v, w < 0 is q = 0.5.
@pytest.mark.parametrize(
    "v, w, mu, expected",
    [
        (2.0, 0.0, 0.0, ["nan"] * 5),
        (-2.0, 4.0, 0.0, ["nan"] * 5),
        (4.0, 4.0, 0.0, ["nan"] * 5),
        (2.0, 4.0, 0.05, ["nan"] * 5),
        (6.0, 4.0, 0.0, ["1", "0", "0", "0", "0"]),
        (-2.0, -4.0, 0.0, ["0.0204081632653", "0.734693877551", "0", "0.183673469388", "0"]),
    ],
    ids=["w0", "v-negative", "q1", "E-nonzero", "q-above-1", "v-w-negative"],
)
def test_steady_theory_overlay_domain_edges(tmp_path, v, w, mu, expected):
    config = {
        "center": {"type": "ssh", "v": v, "w": w, "cells": 2},
        "lead": {"J": -0.01, "mu": mu},
        "steady": {"k": "pi/2"},
    }
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    assert _csv_column(out / "amplitudes.csv", "probability_theory") == expected


# Off the band centre the zero-mode law does not hold even at E = 0: at
# k = pi/3 the steady overlay was 0.245 off the measured probabilities.
# mu = -2J cos k puts the incident energy E = 2J cos k + mu on zero.
@pytest.mark.parametrize("mode", ["steady", "dynamics"])
@pytest.mark.parametrize("k", [np.pi / 3, np.pi / 4], ids=["pi/3", "pi/4"])
def test_zero_mode_overlay_needs_the_band_centre(tmp_path, mode, k):
    config = _MODE_CONFIGS[mode]()
    config["lead"]["mu"] = -2.0 * config["lead"]["J"] * np.cos(k)
    if mode == "steady":
        config["steady"]["k"] = k
    else:
        # off the band centre the packet disperses: longer leads keep it
        # off their truncated ends until it has left the junctions
        config["packet"]["k"] = k
        config["lead"]["length"] = 150
    out = tmp_path / "out"
    assert cli.main([mode, "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    energy = summary["energy" if mode == "steady" else "incident_energy"]
    assert abs(energy) < 1e-9
    table = "amplitudes.csv" if mode == "steady" else "channels.csv"
    theory = _csv_column(out / table, "probability_theory")
    assert theory == ["nan"] * len(theory)
    assert "theory" not in (out / "final_state.svg").read_text()


# The incident wave at the band centre is k = pi/2 for J < 0 and -pi/2 for
# J > 0.  J -> -J mirrors the network, so both runs measure the same p_1,
# and both get the zero-mode closed form (a J > 0 run used to get NaN).
@pytest.mark.parametrize(
    "J, k", [(0.1, "-pi/2"), (-0.1, "pi/2")], ids=["J-positive", "J-negative"]
)
def test_zero_mode_overlay_for_either_sign_of_the_lead_hopping(tmp_path, J, k):
    config = {
        "center": {"type": "ssh", "v": 2.0, "w": 4.0, "cells": 12},
        "lead": {"J": J, "mu": 0.0, "length": 80},
        "packet": {"center_site": -30, "sigma": 6, "k": k},
    }
    out = tmp_path / "out"
    assert cli.main(["dynamics", "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    assert _csv_column(out / "channels.csv", "probability")[1] == "0.734657153058"
    assert _csv_column(out / "channels.csv", "probability_theory")[1] == "0.734693877551"


# A steady k is the incident wave's magnitude: the run with J > 0 solves
# at -pi/2 and gets the same overlay as its mirror at J < 0.
@pytest.mark.parametrize("J", [0.01, -0.01], ids=["J-positive", "J-negative"])
def test_steady_overlay_for_either_sign_of_the_lead_hopping(tmp_path, J):
    config = {
        "center": {"type": "ssh", "v": 2.0, "w": 4.0, "cells": 2},
        "lead": {"J": J, "mu": 0.0},
        "steady": {"k": "pi/2"},
    }
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    assert _csv_column(out / "amplitudes.csv", "probability_theory") == [
        "0.0204081632653", "0.734693877551", "0", "0.183673469388", "0"
    ]


# A gain/loss centre without gain or loss, or with the sign flipped, is
# outside the closed form's domain (gamma > 0): each run still succeeds,
# with no theory overlay.  gamma = 1 is the control with one.  The steady
# and dynamics runs probe E = mu = 6.9, 0.03 below the lowest level.
@pytest.mark.parametrize("gamma", [1.0, 0.0, -1.0])
def test_gain_loss_overlays_outside_the_closed_form(tmp_path, gamma):
    center = {"type": "nh_ssh", "v": 8.0, "w": 2.0, "gamma": gamma, "cells": 2}
    scan = {"center": center, "scan": {"mu_min": 5.0, "mu_max": 11.0, "step": 0.01}}
    out = tmp_path / "scan"
    assert cli.main(["mu-scan", "--config", str(_write(tmp_path, scan)), "--out", str(out)]) == 0
    analytic_energy = _csv_column(out / "resonances.csv", "analytic_energy")
    assert len(analytic_energy) == 2
    has_theory = "analytic levels" in (out / "reflection.svg").read_text()
    assert has_theory == (gamma > 0)
    assert (analytic_energy == ["nan", "nan"]) == (gamma <= 0)

    dynamics = {
        "center": center,
        "lead": {"J": -0.1, "mu": 6.9, "length": 60},
        "packet": {"center_site": -30, "sigma": 6, "k": "pi/2"},
    }
    steady = {"center": center, "lead": {"J": -0.1, "mu": 6.9}, "steady": {"k": "pi/2"}}
    for mode, config, table in [
        ("dynamics", dynamics, "channels.csv"), ("steady", steady, "amplitudes.csv")
    ]:
        out = tmp_path / mode
        path = _write(tmp_path, config, name=f"{mode}.json")
        assert cli.main([mode, "--config", str(path), "--out", str(out)]) == 0
        theory = _csv_column(out / table, "probability_theory")
        assert (theory == ["nan"] * 5) == (gamma <= 0)
        assert ("theory" in (out / "final_state.svg").read_text()) == (gamma > 0)


# The gain/loss overlay is keyed on the incident energy E = 2J cos k + mu,
# here E = mu - 1: mu = level + 1 puts E on the lowest real level, while
# mu = level + 0.45 leaves E 0.55 off it, beyond the overlay's 0.5 window.
# The dynamics cases keep their ids "on" and "off", so that test
# selections by name still find them.
@pytest.mark.parametrize(
    "mode, offset, drawn",
    [("dynamics", 1.0, True), ("dynamics", 0.45, False),
     ("steady", 1.0, True), ("steady", 0.45, False)],
    ids=["on", "off", "steady-on", "steady-off"],
)
def test_gain_loss_overlay_follows_the_incident_energy(tmp_path, mode, offset, drawn):
    level = sl.nh_spectrum(8.0, 2.0, 1.0, 2)[0].real_energy
    config = {
        "center": {"type": "nh_ssh", "v": 8.0, "w": 2.0, "gamma": 1.0, "cells": 2},
        "lead": {"J": -1.0, "mu": level + offset},
    }
    if mode == "steady":
        config["steady"] = {"k": "pi/3"}
    else:
        config["lead"]["length"] = 60
        config["packet"] = {"center_site": -30, "sigma": 6, "k": "pi/3"}
    out = tmp_path / "out"
    assert cli.main([mode, "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    table = "amplitudes.csv" if mode == "steady" else "channels.csv"
    theory = _csv_column(out / table, "probability_theory")
    assert (theory[1:] != ["nan"] * 4) == drawn
    assert ("theory" in (out / "final_state.svg").read_text()) == drawn


# A steady run at each of figure 6's four probes draws the per-cell profile
# of its level, as the dynamics run of the same panel does.  The profile is
# the v >> w approximation, so the bound is loose: it was within 0.119,
# 0.101, 0.095 and 0.053 of max(p_1..p_8) of the measured channels.
@pytest.mark.parametrize("panel", "abcd")
def test_steady_run_on_figure_6_draws_the_per_cell_profile(tmp_path, panel):
    ((_, fig),) = cli.figure_configs(f"6{panel}")
    steady = cli.SteadySection(k=cli.BAND_CENTRE_K)
    cli.run(cli.RunConfig("steady", fig.center, fig.lead, steady=steady), tmp_path)
    p, theory = (
        np.array(_csv_column(tmp_path / "amplitudes.csv", name), dtype=float)
        for name in ("probability", "probability_theory")
    )
    assert np.isnan(theory[0]) and not np.isnan(theory[1:]).any()
    np.testing.assert_array_equal(theory[1::2], theory[2::2])
    assert np.abs(theory[1:] - p[1:]).max() <= 0.15 * p[1:].max()
    assert "theory" in (tmp_path / "final_state.svg").read_text()


def test_theory_overlay_matches_the_per_cell_loop():
    center = sl.NonHermitianSSHCenter(v=40.0, w=2.0, gamma=10.0, cells=4)
    level = sl.nh_spectrum(40.0, 2.0, 10.0, 4)[1]
    p = np.linspace(0.0, 0.3, 9)
    profile = sl.nh_transmission_profile(level, 4)
    expected = np.full(9, np.nan)
    for m in range(1, 5):  # channels 2m-1 and 2m of cell m, scaled to max(p[1:])
        expected[2 * m - 1] = expected[2 * m] = profile[m - 1] * 0.3
    theory = cli._theory_overlay(center, level.real_energy, cli.BAND_CENTRE_K, -0.1, p)
    np.testing.assert_array_equal(theory, expected)


# resonances.csv's nearest-level columns: one broadcast argmin in place of
# min(levels, key=...) per resonance, the first of a tie on both
@given(
    levels=st.lists(st.integers(-8, 8).map(float), max_size=6),
    x=st.lists(st.integers(-20, 20).map(lambda i: i / 2), max_size=6),
)
def test_nearest_level_is_the_per_point_min(levels, x):
    got = cli._nearest(levels, np.array(x, dtype=float)).tolist()
    expected = [min(levels, key=lambda e: abs(e - v)) if levels else math.nan for v in x]
    assert [repr(v) for v in got] == [repr(v) for v in expected]


def test_q_sweep_visibility_theory_above_the_transition(tmp_path):
    config = _small_q_sweep_config()
    config["sweep"]["q_values"] = [0.5, 1.5, 2.0]
    out = tmp_path / "out"
    path = _write(tmp_path, config)
    assert cli.main(["q-sweep", "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
    assert _csv_column(out / "sweep.csv", "visibility_theory") == ["0.6", "nan", "nan"]
    assert _csv_column(out / "sweep.csv", "reflectance_theory") == ["0.0204081632653", "1", "1"]


# The closed forms describe a packet at E = 0 from the band centre: at
# mu = 0.3 the reflectance measured 0.751 where the law gives 0.0204, and at
# k = pi/3 with E = 0 (mu = -2J cos k = 0.1) it measured 0.266.
@pytest.mark.parametrize("mu, k", [(0.3, "pi/2"), (0.1, "pi/3")], ids=["mu-0.3", "k-pi/3"])
def test_q_sweep_writes_no_theory_off_the_operating_point(tmp_path, mu, k):
    config = _small_q_sweep_config()
    config["lead"]["mu"] = mu
    config["lead"]["length"] = 100  # room for the slower, dispersing packet
    config["packet"]["k"] = k
    out = tmp_path / "out"
    path = _write(tmp_path, config)
    assert cli.main(["q-sweep", "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
    assert _csv_column(out / "sweep.csv", "visibility_theory") == ["nan"] * 3
    assert _csv_column(out / "sweep.csv", "reflectance_theory") == ["nan"] * 3
    assert _csv_column(out / "sweep.csv", "status") == ["ok", "excluded (transition)", "ok"]
    rows = json.loads((out / "summary.json").read_text())["rows"]
    assert [row["reflectance_theory"] for row in rows] == [None] * 3
    assert "theory" not in (out / "sweep.svg").read_text()


def test_q_sweep_run_marks_transition(tmp_path):
    config = _small_q_sweep_config()
    out = tmp_path / "out"
    rc = cli.main(
        ["q-sweep", "--config", str(_write(tmp_path, config)), "--out", str(out),
         "--workers", "1"]
    )
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == (
        "q,status,visibility_measured,visibility_theory,"
        "reflectance_measured,reflectance_theory"
    )
    rows = {line.split(",")[0]: line for line in lines[2:]}
    assert "excluded (transition)" in rows["1"]
    assert rows["1"].split(",")[2] == "nan"
    ok_row = rows["0.5"].split(",")
    assert ok_row[1] == "ok"
    assert float(ok_row[3]) == pytest.approx(0.6)
    assert (out / "sweep.svg").exists()


def test_q_sweep_summary_is_strict_json(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, _small_q_sweep_config())
    assert cli.main(["q-sweep", "--config", str(path), "--out", str(out), "--workers", "1"]) == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rows = json.loads((out / "summary.json").read_text(), parse_constant=refuse)["rows"]
    by_q = {row["q"]: row for row in rows}
    assert by_q[1.0]["status"] == "excluded (transition)"
    assert by_q[1.0]["visibility_measured"] is None
    assert by_q[1.0]["reflectance_theory"] is None
    assert by_q[1.5]["visibility_theory"] is None
    assert by_q[0.5]["visibility_theory"] == pytest.approx(0.6)
    assert json.loads((out / "summary.json").read_text())["warnings"] == []


# sha256 of each CSV artifact and the config echo of summary.json for the
# small configs above (recorded with numpy 2.4 and OpenBLAS on x86-64; the
# CSVs carry 12 significant digits, so another BLAS may flip a last digit).
# The scan hashes are those of the chain recursion: where its printed |r|^2
# differs from a dense LU's, it matches a 40-digit solve at least as often
# (test_steady.test_chain_scan_matches_oracle_at_least_as_often_as_dense).
_GOLDEN = {
    "steady": (
        _small_steady_config,
        {"amplitudes.csv": "b3462a3f9cbcb156a30f26f2d114e9a1b8a498e1c50eed650341c0bbe0e67824"},
        {
            "center": {"type": "ssh", "v": 6.0, "w": 4.0, "cells": 20},
            "lead": {"J": -0.01, "mu": 0.0},
        },
    ),
    "dynamics": (
        _small_dynamics_config,
        {
            "channels.csv": "c6840942ac138920d2018399849f1e2b600fbc2789e4951ce7ec022cf80b3475",
            "snapshots.csv": "046039cae734770f2c48d10e15d467a151b53dcc010e13e10074eb1187f02543",
            "trajectory.csv": "7a4af8b45c0727fcffb429c1129348850c7677dd4692769f735c33e8c963e6f2",
        },
        {
            "center": {"type": "ssh", "v": 2.0, "w": 4.0, "cells": 4},
            "lead": {"J": -0.1, "mu": 0.0, "length": 60},
            "packet": {"center_site": -30, "sigma": 6.0, "k": np.pi / 2},
        },
    ),
    "mu-scan": (
        _small_mu_scan_config,
        {
            "resonances.csv": "6fecdd6e5e3cbd2cf7fa73945ca11c01718c24463f58c79c3dce10c477a3e70c",
            "scan.csv": "8c3d227c98e036a612b4686d80b88a9701dff9c71ca87c48a2ebe9025595aca7",
        },
        {
            "center": {"type": "ssh", "v": 2.0, "w": 4.0, "cells": 3},
            "scan": {"mu_min": -6.5, "mu_max": 6.5, "step": 0.002, "alpha": 1, "J": 1.0,
                     "k": np.pi / 2},
        },
    ),
    "q-sweep": (
        _small_q_sweep_config,
        {"sweep.csv": "de40b2d643545c4bc90ece96cb7f7cdc8a3749b10aaf6afaa95854950f09ade7"},
        {
            "sweep": {"q_values": [0.5, 1.0, 1.5], "w": 4.0, "cells": 2},
            "lead": {"J": -0.1, "mu": 0.0, "length": 40},
            "packet": {"center_site": -15, "sigma": 4.0, "k": np.pi / 2},
        },
    ),
}


@pytest.mark.parametrize("mode", sorted(_GOLDEN))
def test_artifacts_match_golden(tmp_path, mode):
    config, csv_hashes, echo = _GOLDEN[mode]
    out = tmp_path / "out"
    argv = [mode, "--config", str(_write(tmp_path, config())), "--out", str(out)]
    assert cli.main(argv + (["--workers", "1"] if mode == "q-sweep" else [])) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.glob("*.csv")}
    assert got == csv_hashes
    summary = json.loads((out / "summary.json").read_text())
    blocks = ("center", "lead", "packet", "scan", "sweep")
    assert {k: summary[k] for k in blocks if k in summary} == echo


# sha256 of the CSVs of a small gain/loss dynamics run, recorded as above:
# the lead potential mu sits on the first real level of the centre, so this
# pins a mu != 0 network and the non-Hermitian propagator's output.
_GAIN_LOSS_DYNAMICS_GOLDEN = {
    "channels.csv": "442469260003405958bd590bcae9161a31791a3327faf821bc01487ddeb74225",
    "snapshots.csv": "b7a596f0c36130b2440f083f224359c7671e07d677c1ab509d06a27bf09278d2",
    "trajectory.csv": "e7dac5d8476d927642da876806fc40ca9bdafc87baf44768393379c4775afa72",
}


def test_gain_loss_dynamics_artifacts_match_golden(tmp_path):
    mu = sl.nh_spectrum(8.0, 2.0, 1.0, 2)[0].real_energy
    config = {
        "center": {"type": "nh_ssh", "v": 8.0, "w": 2.0, "gamma": 1.0, "cells": 2},
        "lead": {"J": -0.1, "mu": mu, "length": 60},
        "packet": {"center_site": -30, "sigma": 6, "k": "pi/2"},
    }
    out = tmp_path / "out"
    assert cli.main(["dynamics", "--config", str(_write(tmp_path, config)), "--out", str(out)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.glob("*.csv")}
    assert got == _GAIN_LOSS_DYNAMICS_GOLDEN


# sha256 of every CSV and SVG of `reproduce-fig 3a`, recorded as above: the
# figure-scale network (41 channels) and the trajectory heatmap.
_FIG3A_GOLDEN = {
    "channels.csv": "c4e4915f999ac63759018a16b40147486987a44af3920b73d5f06f15c4498cb3",
    "snapshots.csv": "55c757cdcdd46b0b98acd4e826ff32f7a187375be2baaa24f9aa5706dc9c15bd",
    "trajectory.csv": "0263dff1d2eb8fc86f88f98eaa9ec116f531f3e5c7ef42b84b012f10ba2e56e4",
    "final_state.svg": "62b00a9064e73584f8e6fb06d64cb30cd9dd3b34e2dbf49c1c34cca4500403ec",
    "trajectory.svg": "3ed06afb3c35f0b52a47104585864aa28c152fbb26a48b934585e1e8b23f7cc6",
}


def test_figure_3a_artifacts_match_golden(tmp_path):
    assert cli.main(["reproduce-fig", "3a", "--out", str(tmp_path)]) == 0
    files = [f for f in (tmp_path / "fig3a").iterdir() if f.suffix in (".csv", ".svg")]
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files} == _FIG3A_GOLDEN


# sha256 of the fig7f panel of `reproduce-fig 7` (the 8-site gain/loss
# centre, 20,001 grid points), recorded as above, with the incident wave
# e^{-i pi j/2} of J = +1 that packet dynamics confirms
# (test_steady_solves_match_incoming_packets_at_positive_J), and the chain
# recursion in extended precision, whose |r|^2 agrees with a 40-digit solve
# to 2.1e-14 (test_gain_loss_chain_scan_is_within_1e_13_of_the_oracle_on_every_row).
_FIG7F_GOLDEN = {
    "scan.csv": "529859a31c0f5fd06579cc1e830d04ca6b063e44e510b4413b463edd3a3b85b2",
    "resonances.csv": "3cda757565b417573e53c1a1755ce6c56b3350f5efba6dfd3e818d06dbc922eb",
    "reflection.svg": "7ae3891f48da202c4dff315f5782e9ffd95f909e396b34a6f15453b6b5c88b2f",
}


def test_figure_7f_artifacts_match_golden(tmp_path):
    cfg = dict(cli.figure_configs("7"))["fig7f"]
    cli.run(cfg, tmp_path)
    files = [f for f in tmp_path.iterdir() if f.suffix in (".csv", ".svg")]
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files} == _FIG7F_GOLDEN


# sha256 of the fig7b panel of `reproduce-fig 7` (the 40-site v=2 SSH
# centre, 14,001 grid points), recorded as above.  Its edge pair is split
# by 5.7e-6, inside one grid step, so the refinement must resolve both zeros.
# The SVG pins the plot of a real chain, whose recursion runs in floats.
_FIG7B_GOLDEN = {
    "scan.csv": "cd76b04946ca1ded4a8c3207256a169c5ecc3b5f74aabdc097ef1b1fad818ad4",
    "resonances.csv": "dd87d15a22afc12b56715aff14d9b6c5416e41cefe23137a0c18131f2e0a26ee",
    "reflection.svg": "c7cec9173b46c27c096bf00295562c9d1f5a8ba148f632fd39a01c6f6c4df8f7",
}


def test_figure_7b_artifacts_match_golden(tmp_path):
    cfg = dict(cli.figure_configs("7"))["fig7b"]
    cli.run(cfg, tmp_path)
    files = [f for f in tmp_path.iterdir() if f.suffix in (".csv", ".svg")]
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files} == _FIG7B_GOLDEN


def _serial_pool(created: list):
    """ProcessPoolExecutor stand-in: records max_workers and maps in-process."""

    class SerialPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    return SerialPool


def test_q_sweep_pool_is_capped_at_the_sweep_points(tmp_path, monkeypatch):
    created = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _serial_pool(created))
    config, csv_hashes, _ = _GOLDEN["q-sweep"]
    out = tmp_path / "out"
    argv = ["q-sweep", "--config", str(_write(tmp_path, config())), "--out", str(out)]
    assert cli.main(argv + ["--workers", "5000"]) == 0
    assert created == [2]  # q = 1 is excluded, leaving two points
    got = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert got == csv_hashes["sweep.csv"]


def test_q_sweep_summary_keeps_its_points_run_warnings(tmp_path, monkeypatch):
    # a point that reaches t_max still reads "ok" in sweep.csv; its warning
    # goes to summary.json under its q, from the pool's workers too
    created = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _serial_pool(created))
    config = _small_q_sweep_config()
    config["sweep"]["q_values"] = [0.5, 1.5]
    config["propagator"] = {"t_max": 50}
    out = tmp_path / "out"
    argv = ["q-sweep", "--config", str(_write(tmp_path, config)), "--out", str(out)]
    assert cli.main(argv + ["--workers", "2"]) == 0
    assert created == [2]
    assert _csv_column(out / "sweep.csv", "status") == ["ok", "ok"]
    assert json.loads((out / "summary.json").read_text())["warnings"] == [
        f"q={q}: t_max=50 reached with {left} probability still near the junctions; "
        "scattering unfinished"
        for q, left in [(0.5, "5.439e-01"), (1.5, "5.467e-01")]
    ]


_EDGE_SSH = {"type": "ssh", "v": 2.0, "w": 4.0, "cells": 2}
_EDGE_LEAD = {"J": -0.1, "length": 40}
_EDGE_PACKET = {"center_site": -15, "sigma": 4, "k": "pi/2"}
_HUGE_NH = {"type": "nh_ssh", "v": 1e200, "w": 1e199, "gamma": 1e200, "cells": 2}


def _edge_dynamics(center=_EDGE_SSH, lead=_EDGE_LEAD, **overrides):
    return {"center": center, "lead": lead, "packet": _EDGE_PACKET, **overrides}


# Configs on which an engine once raised a Python warning, or numpy leaked
# one; a run under -W error then died with a traceback and no artifacts.
# (mode, config, extra argv, exit code, fragments of the expected warning lines)
_EDGE_RUNS = {
    "t-max-reached": (
        "dynamics", _edge_dynamics(propagator={"t_max": 20}), [], 0, ["scattering unfinished"],
    ),
    "truncated-lead-end": (
        "dynamics",
        _edge_dynamics(lead={"J": -0.1, "length": 30},
                       packet={**_EDGE_PACKET, "center_site": -12}),
        [], 0, ["truncated lead end"],
    ),
    "tiny-sigma": (
        "dynamics", _edge_dynamics(packet={**_EDGE_PACKET, "sigma": 1e-160}), [], 0,
        ["scattering unfinished", "truncated lead end"],
    ),
    "pooled-q-sweep": (
        "q-sweep",
        {"sweep": {"q_values": [0.5, 1.5], "w": 4.0, "cells": 2}, "lead": _EDGE_LEAD,
         "packet": _EDGE_PACKET, "propagator": {"t_max": 20}},
        ["--workers", "2"], 0, ["q=0.5: ", "q=1.5: "],
    ),
    "steady-huge-nh-chain": (
        "steady", {"center": _HUGE_NH, "lead": {"J": -0.1}, "steady": {"k": "pi/2"}}, [], 0, [],
    ),
    "mu-scan-huge-nh-chain": (
        "mu-scan", {"center": _HUGE_NH, "scan": {"mu_min": -1, "mu_max": 1, "step": 0.1}},
        [], 0, [],
    ),
    "mu-scan-levels-beyond-the-float-range": (
        "mu-scan",
        {"center": {"type": "custom", "matrix": [[1, 1e308], [1e308, 1]]},
         "scan": {"mu_min": -1, "mu_max": 1, "step": 0.5}},
        [], 0, [],
    ),
    "mu-scan-huge-gapped-nh-chain": (
        "mu-scan",
        {"center": {"type": "nh_ssh", "v": 1e308, "w": 1e307, "gamma": 1, "cells": 2},
         "scan": {"mu_min": -1, "mu_max": 1, "step": 0.5}},
        [], 0, [],
    ),
    "amplifying-custom-centre": (
        "dynamics",
        _edge_dynamics(center={"type": "custom", "matrix": [[[0, 5], 1], [1, [0, 5]]]}),
        [], 4, [],
    ),
}


@pytest.mark.parametrize("case", list(_EDGE_RUNS))
def test_edge_run_prints_its_summary_warnings_and_raises_none(tmp_path, capfd, case):
    # under filterwarnings = error a Python warning from an engine, a pooled
    # worker (fd-level capture sees theirs) or numpy fails the run; the
    # warnings summary.json lists are main's only warning lines on stderr
    mode, config, extra, code, expected = _EDGE_RUNS[case]
    out = tmp_path / "out"
    argv = [mode, "--config", str(_write(tmp_path, config)), "--out", str(out), *extra]
    assert cli.main(argv) == code
    err = capfd.readouterr().err
    assert "Traceback" not in err
    lines = [line[len("warning: "):] for line in err.splitlines() if line.startswith("warning: ")]
    if code:
        assert lines == [] and not (out / "summary.json").exists()
        assert "numerical failure: snapshot at t=74.25 has state norm inf" in err
        return
    summary = json.loads((out / "summary.json").read_text())
    assert lines == summary.get("warnings", [])
    assert len(lines) == len(expected)
    assert all(fragment in line for fragment, line in zip(expected, lines))
    if mode == "steady":  # no theory for a chain beyond nh_spectrum's range
        assert set(_csv_column(out / "amplitudes.csv", "probability_theory")) == {"nan"}


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_q_sweep_rejects_fewer_than_one_worker(tmp_path, monkeypatch, capsys, workers):
    created = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _serial_pool(created))
    path = _write(tmp_path, _small_q_sweep_config())
    argv = ["q-sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--workers", workers]
    assert cli.main(argv) == 2
    assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
    assert created == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("w", [0.0, -4.0])
def test_q_sweep_rejects_a_nonpositive_w(tmp_path, capsys, w):
    # w = 0 would run v = w = 0 chains and report them next to the closed forms
    payload = _small_q_sweep_config()
    payload["sweep"]["w"] = w
    path = _write(tmp_path, payload)
    assert cli.main(["q-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"configuration error: sweep.w must be positive, got {w}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_q_sweep_rejects_fewer_than_one_cell(tmp_path, capsys):
    # refused at parse time, as w is, before the run makes its output directory
    path = _write(tmp_path, {"sweep": {"q_values": [0.5], "cells": 0}})
    assert cli.main(["q-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "configuration error: sweep.cells must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "q, code, message",
    [(1e308, 3, "physics precondition violated: SSHCenter.v must be finite, got inf"),
     (2.5e307, 4, "numerical failure: spectral half-width")],
    ids=["v-overflows", "half-width-overflows"],
)
def test_q_sweep_point_beyond_the_float_range_is_refused(tmp_path, capsys, q, code, message):
    payload = _small_q_sweep_config()
    payload["sweep"]["q_values"] = [q]
    path = _write(tmp_path, payload)
    argv = ["q-sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--workers", "1"]
    with np.errstate(all="ignore"):
        assert cli.main(argv) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "sweep.csv").exists()


def test_q_sweep_half_width_overflow_is_refused_without_a_warning(tmp_path, capsys):
    # no errstate here: a RuntimeWarning from the plan fails the test
    payload = _small_q_sweep_config()
    payload["sweep"]["q_values"] = [2.5e307]
    path = _write(tmp_path, payload)
    argv = ["q-sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--workers", "1"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "numerical failure: spectral half-width" in err
    assert "Warning" not in err


def test_steady_refuses_a_lead_band_beyond_the_float_range(tmp_path, capsys):
    payload = _small_steady_config()
    payload["lead"]["J"] = 1e308
    path = _write(tmp_path, payload)
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "lead band edge 2|J| + |mu| is not finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_exit_code_config_error(tmp_path):
    path = tmp_path / "nope.json"
    assert cli.main(["dynamics", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def _oversized_integer(path):
    # 5,001 digits, beyond the default cap of int parsing (and of json.dumps)
    text = json.dumps(_small_dynamics_config())
    path.write_text(text.replace('"length": 60', '"length": ' + "9" * 5001))


@pytest.mark.parametrize(
    "make, message",
    [(_oversized_integer, "Exceeds the limit"),
     (lambda path: path.write_bytes(b"\xff\xfe{}"), "can't decode byte 0xff"),
     (lambda path: path.mkdir(), "Is a directory")],
    ids=["5001-digit-integer", "not-utf8", "directory"],
)
def test_unreadable_config_is_a_config_error(tmp_path, capsys, make, message):
    path = tmp_path / "config.json"
    make(path)
    assert cli.main(["dynamics", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot read config {path}" in err
    assert message in err
    assert not (tmp_path / "o").exists()


def test_exit_code_physics_error(tmp_path):
    config = {
        "center": {"type": "ssh", "v": 2.0, "w": 4.0, "cells": 2},
        "lead": {"J": -0.1},
        "steady": {"k": 0.0},
    }
    path = _write(tmp_path, config)
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


def test_exit_code_numerical_error(tmp_path):
    # gain-tuned single site cancels the lead boundary term: singular solve
    config = {
        "center": {"type": "custom", "matrix": [[[0.0, 2.0]]]},
        "lead": {"J": -1.0, "mu": 0.0},
        "steady": {"k": "pi/2"},
    }
    path = _write(tmp_path, config)
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "o")]) == 4


def test_reproduce_fig_smoke(tmp_path):
    assert cli.main(["reproduce-fig", "3a", "--out", str(tmp_path)]) == 0
    out = tmp_path / "fig3a"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["channel_probabilities"][0] == pytest.approx(1 / 49, abs=0.01)
    assert (out / "trajectory.svg").exists()


def test_console_entry_point_help():
    # run from the directory holding the package, so no PYTHONPATH is needed
    proc = subprocess.run(
        [sys.executable, "-m", "scatterlab", "--help"],
        capture_output=True,
        text=True,
        cwd=Path(sl.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert "reproduce-fig" in proc.stdout


_SCIPY_FREE_PATHS = {
    "package": "import scatterlab",
    "cli": "import scatterlab.cli",
    "mu-scan": "from scatterlab import cli; "
    "assert cli.main(['mu-scan', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0",
}


@pytest.mark.parametrize("path", list(_SCIPY_FREE_PATHS))
def test_cli_paths_leave_scipy_unloaded(tmp_path, path):
    # scipy.sparse alone (with the copy of numpy its array API layer makes)
    # is more than half of an import of scatterlab.cli; only assembling or
    # propagating a network needs scipy
    code = (
        f"import sys; {_SCIPY_FREE_PATHS[path]}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    config = _write(tmp_path, _small_mu_scan_config())
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config), str(tmp_path / "o")],
        capture_output=True,
        text=True,
        cwd=Path(sl.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_dynamics_run_loads_scipy_sparse_only(tmp_path):
    # the Chebyshev weights come from dynamics._bessel_j: a dynamics run
    # loads scipy.sparse for the network and its kernels, never
    # scipy.special, whose import took 110-164 ms of reproduce-fig 3a
    code = (
        "import sys; from scatterlab import cli; "
        "assert cli.main(['dynamics', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0; "
        "print('scipy.sparse' in sys.modules, 'scipy.special' in sys.modules)"
    )
    config = _write(tmp_path, _small_dynamics_config())
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config), str(tmp_path / "o")],
        capture_output=True,
        text=True,
        cwd=Path(sl.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True False"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a pooled q-sweep needs concurrent.futures.process (and with it
    # multiprocessing); every other run skips that import
    code = "import sys, scatterlab.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=Path(sl.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_q_sweep_process_pool_writes_the_serial_bytes(tmp_path):
    # a real ProcessPoolExecutor, forked in a child process rather than in
    # the test process; every other q-sweep test runs serially
    config = _write(tmp_path, {
        "sweep": {"q_values": [0.5, 1.0, 1.5], "w": 4.0, "cells": 2},
        "lead": {"J": -0.1, "length": 40},
        "packet": {"center_site": -15, "sigma": 4, "k": "pi/2"},
    })
    env = {**os.environ, "PYTHONPATH": str(Path(sl.__file__).parents[1])}
    outs = {}
    for workers in ("1", "2"):
        outs[workers] = tmp_path / f"workers-{workers}"
        proc = subprocess.run(
            [sys.executable, "-m", "scatterlab", "q-sweep", "--config", str(config),
             "--out", str(outs[workers]), "--workers", workers],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in outs["1"].iterdir())
    assert names and names == sorted(p.name for p in outs["2"].iterdir())
    for name in names:
        assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes(), name


def _whole_table_snapshots(path, net, times, prob):
    """snapshots.csv written as one table of every row above 1e-12: the
    reference that the streamed blocks must match byte for byte."""
    region, channel, offset = net.labels()
    ti, si = np.nonzero(prob > 1e-12)
    write_csv(path, {
        "time": times[ti], "region": region[si], "channel": channel[si], "offset": offset[si],
        "probability": prob[ti, si],
    })


def test_streamed_snapshots_match_the_whole_table(tmp_path):
    # snapshot 1 holds no row above 1e-12 (one exactly at it), so its block
    # is empty; every site of snapshot 4 is above it, more rows than one
    # _CSV_BLOCK; the times and probabilities span the %.12g cases
    net = sl.NetworkSpec(sl.SSHCenter(2.0, 4.0, 1), sl.LeadSpec(J=-0.1, length=1400))
    assert net.dim > _CSV_BLOCK
    rng = np.random.default_rng(3)
    prob = 10.0 ** rng.uniform(-16, 0, (5, net.dim))
    prob[1] = np.minimum(prob[1], 1e-12)
    prob[2, ::3] = 1e-12
    prob[4] = 10.0 ** rng.uniform(-11, 0, net.dim)
    times = np.array([0.0, 1 / 3, 2.5e-7, 1e5 + 0.1, 7.0])
    write_csv(tmp_path / "streamed.csv", cli._snapshot_blocks(net, times, prob))
    _whole_table_snapshots(tmp_path / "whole.csv", net, times, prob)
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_snapshots_of_a_run_clipped_at_t_max_match_the_whole_table(tmp_path, capsys):
    config = {**_small_dynamics_config(), "propagator": {"snapshot_stride": 7.0, "t_max": 50.0}}
    cfg = cli.parse_config(_write(tmp_path, config), "dynamics")
    out = tmp_path / "out"
    summary = cli.run(cfg, out)
    net = sl.NetworkSpec(cfg.center, cfg.lead)
    rec = sl.run_experiment(net, cfg.packet, cfg.propagator)
    assert summary["final_time"] == rec.times[-1] == 50.0
    assert summary["warnings"] == list(rec.warnings)
    assert rec.warnings[0].endswith("scattering unfinished")
    assert capsys.readouterr() == ("", "")  # only main prints a run's warnings
    _whole_table_snapshots(tmp_path / "whole.csv", net, rec.times, rec.site_probabilities)
    assert (out / "snapshots.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_fig3a_dynamics_allocates_less_than_its_snapshots_beyond_them(tmp_path, monkeypatch):
    # the snapshot array is allocated once for the run's budget and resident
    # only as far as it is written, so it is counted apart; everything else
    # the run allocates (propagation, channel history, the three CSVs, the
    # SVGs) stays below one record's bytes.  It reads 0.73 of them; a stacked
    # copy of the snapshots, a fancy-index copy of the lead sites and a whole
    # snapshots.csv table together read 2.44
    import scipy.sparse  # noqa: F401 -- imports are not the run's

    cfg = dict(cli.figure_configs("3a"))["fig3a"]
    records = []
    run_experiment = cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment", lambda *a: records.append(run_experiment(*a))
                        or records[-1])
    tracemalloc.start()
    try:
        cli.run_dynamics(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    snapshots = records[0].site_probabilities
    held = snapshots if snapshots.base is None else snapshots.base
    assert peak - held.nbytes < snapshots.nbytes


def test_every_public_name_resolves():
    missing = [name for name in sl.__all__ if not hasattr(sl, name)]
    assert missing == []
