import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scatterlab as sl
from scatterlab import cli
from scatterlab.output import CSV_VERSION_LINE


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
        "scan": {"mu_min": -6.5, "mu_max": 6.5, "step": 0.002, "alpha": 1, "J": 1.0,
                 "k": "pi/2"},
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
    level = sl.nh_spectrum(40.0, 2.0, 10.0, 4).level(1)
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
        "steady", "steady", {"k": "pi/2", "input_site": 1}, "k",
        ("input_site", True), "steady.input_site: expected an integer, got True",
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
    ],
    ids=["string", "bool", "null"],
)
def test_custom_matrix_pair_parts_must_be_numbers(tmp_path, cell, message):
    payload = _small_dynamics_config()
    payload["center"] = {"type": "custom", "matrix": [[cell]]}
    with pytest.raises(sl.ConfigError) as err:
        cli.parse_config(_write(tmp_path, payload), "dynamics")
    assert str(err.value) == message


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


def test_nan_snapshot_stride_is_a_physics_error(tmp_path, capsys):
    path = _write(tmp_path, _small_dynamics_config())
    argv = ["dynamics", "--config", str(path), "--out", str(tmp_path / "o")]
    assert cli.main(argv + ["--snapshot-stride", "nan"]) == 3
    assert "snapshot_stride must be positive" in capsys.readouterr().err


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


# sha256 of each CSV artifact and the config echo of summary.json for the
# small configs above (recorded with numpy 2.4 and OpenBLAS on x86-64; the
# CSVs carry 12 significant digits, so another BLAS may flip a last digit).
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
            "channels.csv": "024c6183b1b9071591096b5e805f7c6e812e8bb9f9273418c49515706104b096",
            "snapshots.csv": "b6b7973cdbb90e5165d8fb18ce1e5d397a3d7fd6068c63b832b7e68b81c22b5c",
            "trajectory.csv": "2f780002f6f8991f4b6de6397ab0ae4d79061e733a1ed12a1bc46626d32a4b2a",
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
            "resonances.csv": "30719aed93fe636f846c074cb2c81de49baa4d995fc37851579189008b18c040",
            "scan.csv": "483cf774daa2afd64e996c78f7ba67f739490a72f056b2fce12a4e17b7c67dbc",
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
    path = _write(tmp_path, config())
    assert cli.main([mode, "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
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
    "snapshots.csv": "b290a3105f13cc54321ca5ddf6266b8cc11050af548260ec0b465140cd246e07",
    "trajectory.csv": "63ec98b5ad1caac25bacdea9702277c78c35840499168974764bd53b2e3dd6c9",
}


def test_gain_loss_dynamics_artifacts_match_golden(tmp_path):
    mu = sl.nh_spectrum(8.0, 2.0, 1.0, 2).level(0).real_energy
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
    "channels.csv": "7472f33084e1cf540fdd8b18a18ca561b700bbc806827f24a39d6dffbc48a6b7",
    "snapshots.csv": "520cf2b5b74f306f3cfa50778ea73abef8c443e0ab72979088bca8ea586b3836",
    "trajectory.csv": "9ee3da73cbb0b108f7e43d37c13d922b9fc2f15030272330aabcffd486dc0e3b",
    "final_state.svg": "62b00a9064e73584f8e6fb06d64cb30cd9dd3b34e2dbf49c1c34cca4500403ec",
    "trajectory.svg": "3ed06afb3c35f0b52a47104585864aa28c152fbb26a48b934585e1e8b23f7cc6",
}


def test_figure_3a_artifacts_match_golden(tmp_path):
    assert cli.main(["reproduce-fig", "3a", "--out", str(tmp_path)]) == 0
    files = [f for f in (tmp_path / "fig3a").iterdir() if f.suffix in (".csv", ".svg")]
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files} == _FIG3A_GOLDEN


# sha256 of the fig7f panel of `reproduce-fig 7` (the 8-site gain/loss
# centre, 20,001 grid points), recorded as above.
_FIG7F_GOLDEN = {
    "scan.csv": "f8cace5b6d91db45633cb8d50d96840de397c64ec305aeaf0207441cb9ef37fc",
    "resonances.csv": "75bfc973d07b028a89db61eda60312d3b3821dc751b8b3d1bcf8d31475c62540",
    "reflection.svg": "d6d58256f728a0cf339becbba7dbd5685dcdc4dafd574ee68675a751d1aed5f8",
}


def test_figure_7f_artifacts_match_golden(tmp_path):
    cfg = dict(cli.figure_configs("7"))["fig7f"]
    cli.run(cfg, tmp_path)
    files = [f for f in tmp_path.iterdir() if f.suffix in (".csv", ".svg")]
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files} == _FIG7F_GOLDEN


# sha256 of the fig7b panel of `reproduce-fig 7` (the 40-site v=2 SSH
# centre, 14,001 grid points), recorded as above.  Its edge pair is split
# by 5.7e-6, inside one grid step, so the refinement must resolve both zeros.
_FIG7B_GOLDEN = {
    "scan.csv": "9ef6df8a5cf75c4ee615805fc10af5421de5df0211814822e7a91f3181d9851a",
    "resonances.csv": "17f735b63a4ae759d80b8a1fe99dec39e13313a7526fbe8cd823c81b9325152f",
}


def test_figure_7b_artifacts_match_golden(tmp_path):
    cfg = dict(cli.figure_configs("7"))["fig7b"]
    cli.run(cfg, tmp_path)
    files = [f for f in tmp_path.iterdir() if f.suffix == ".csv"]
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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _serial_pool(created))
    config, csv_hashes, _ = _GOLDEN["q-sweep"]
    out = tmp_path / "out"
    argv = ["q-sweep", "--config", str(_write(tmp_path, config())), "--out", str(out)]
    assert cli.main(argv + ["--workers", "5000"]) == 0
    assert created == [2]  # q = 1 is excluded, leaving two points
    got = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert got == csv_hashes["sweep.csv"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_q_sweep_rejects_fewer_than_one_worker(tmp_path, monkeypatch, capsys, workers):
    created = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _serial_pool(created))
    path = _write(tmp_path, _small_q_sweep_config())
    argv = ["q-sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--workers", workers]
    assert cli.main(argv) == 2
    assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
    assert created == []
    assert not (tmp_path / "o").exists()


def test_exit_code_config_error(tmp_path):
    path = tmp_path / "nope.json"
    assert cli.main(["dynamics", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


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
    rc = cli.main(
        ["reproduce-fig", "3a", "--out", str(tmp_path), "--snapshot-stride", "220"]
    )
    assert rc == 0
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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize (and the scipy.spatial, scipy.fft and scipy.linalg it
    # pulls in) would add about a third to every CLI call's import time
    code = "import sys, scatterlab.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=Path(sl.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_every_public_name_resolves():
    missing = [name for name in sl.__all__ if not hasattr(sl, name)]
    assert missing == []
