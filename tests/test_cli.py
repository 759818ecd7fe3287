"""Command-line interface: contracts, exit codes, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from liegate import cli
from liegate.verify import suite_fields, suite_systems

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ["sho", "iontrap", "kanai", "efield"]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def sho_config(tmp_path, **extra):
    payload = {
        "system": "gho",
        "coefficients": {"a": 1.0, "c": 1.0},
        "t_end": math.pi / 4,
        "tol": 1e-12,
    }
    payload.update(extra)
    return write_config(tmp_path, "sho.json", payload)


class TestParams:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        cfg = sho_config(tmp_path)
        out = tmp_path / "run"
        code = cli.main(["params", "--system", "gho", "--path", "path1",
                         "--config", cfg, "--out", str(out)])
        assert code == 0
        header = (out / "params.csv").read_text().splitlines()[0]
        for column in "t,S,lam,Pi,gamma,alpha,phi,vphi,beta,u,udot".split(","):
            assert column in header.split(",")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["system"] == "gho"
        assert summary["final"]["alpha"] == pytest.approx(1.0, abs=1e-9)
        assert summary["final"]["beta"] == pytest.approx(1.0, abs=1e-9)

    def test_negative_t_end_is_config_error(self, tmp_path, capsys):
        cfg = sho_config(tmp_path)
        code = cli.main(["params", "--config", cfg, "--t-end", "-1.0",
                         "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["field"] == "t_end"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "system": "gho", "coefficients": {"a": 1.0}, "t_end": 1.0,
            "extra_knob": 1,
        })
        code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["field"] == "extra_knob"

    def test_critical_damping_is_domain_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kanai.json", {
            "system": "kanai",
            "params": {"m": 1.0, "tau": 1.0, "omega0": 0.5},
            "t_end": 1.0,
        })
        code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert "critical damping" in err["message"]

    def test_planar_system(self, tmp_path):
        cfg = write_config(tmp_path, "bsin.json", {
            "system": "bsin",
            "params": {"m": 1.0, "B0": 2.0, "omega": 3.0, "charge": 1.0},
            "t_end": 1.0,
            "tol": 1e-10,
        })
        out = tmp_path / "run2d"
        assert cli.main(["params", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "params.csv").read_text().splitlines()[0]
        assert "theta" in header and "lam_x" in header

    def test_deterministic_outputs(self, tmp_path):
        cfg = sho_config(tmp_path)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        cli.main(["params", "--config", cfg, "--out", str(out1)])
        cli.main(["params", "--config", cfg, "--out", str(out2)])
        assert (out1 / "params.csv").read_bytes() == (out2 / "params.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


class TestKernel:
    def test_kernel_json_matches_mehler(self, tmp_path):
        cfg = sho_config(tmp_path)
        out = tmp_path / "krun"
        assert cli.main(["kernel", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "kernel.json").read_text())
        t = math.pi / 4
        assert payload["qxx"][0][0][0] == pytest.approx(
            math.cos(t) / (2 * math.sin(t)), abs=1e-9
        )
        assert payload["qxx1"][0][0][0] == pytest.approx(-1 / math.sin(t), abs=1e-9)
        pref = complex(*payload["prefactor"])
        assert abs(pref - 1 / np.sqrt(2j * math.pi * math.sin(t))) < 1e-9

    def test_focal_time_exit_code(self, tmp_path, capsys):
        cfg = sho_config(tmp_path)
        code = cli.main(["kernel", "--config", cfg, "--t-end", "2.0",
                         "--out", str(tmp_path / "x")])
        assert code == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["valid_to"] == pytest.approx(math.pi / 2, rel=1e-9)

    def test_apply_writes_wavefunction(self, tmp_path):
        cfg = sho_config(tmp_path, grid={"n": 256, "x_min": -8.0, "dx": 16.0 / 256})
        out = tmp_path / "apply"
        code = cli.main(["kernel", "--config", cfg, "--out", str(out),
                         "--apply", "gaussian(sigma=1)"])
        assert code == 0
        lines = (out / "psi_out.csv").read_text().splitlines()
        assert lines[0] == "x,re,im"
        assert len(lines) == 257

    def test_apply_outputs_are_byte_identical(self, tmp_path):
        cfg = sho_config(tmp_path, grid={"n": 256, "x_min": -8.0, "dx": 16.0 / 256})
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        for out in (out1, out2):
            assert cli.main(["kernel", "--config", cfg, "--out", str(out),
                             "--apply", "gaussian(sigma=1)"]) == 0
        for name in ("kernel.json", "psi_out.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_apply_spec(self, tmp_path, capsys):
        cfg = sho_config(tmp_path)
        code = cli.main(["kernel", "--config", cfg, "--out", str(tmp_path / "x"),
                         "--apply", "gaussian(width=1)"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["field"] == "apply"


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    code = cli.main(["verify", "--seed", "7", "--out", str(out)])
    assert code == 0
    return out


class TestVerify:
    def test_report_passes_and_counts_structure_checks(self, report_dir):
        report = json.loads((report_dir / "report.json").read_text())
        assert report["all_passed"] is True
        structure = next(
            c for c in report["checks"] if c["name"] == "structure_constants"
        )
        assert structure["count"] >= 105
        assert report["seed"] == 7

    def test_reports_are_byte_identical(self, report_dir, tmp_path):
        out2 = tmp_path / "verify2"
        assert cli.main(["verify", "--seed", "7", "--out", str(out2)]) == 0
        assert (report_dir / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_injected_corruption_fails(self, tmp_path):
        out = tmp_path / "corrupt"
        code = cli.main(["verify", "--seed", "7", "--corrupt-map",
                         "--out", str(out)])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is False
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failing == ["symplectic_invariants"]


class TestConstants:
    def test_cp_export(self, tmp_path):
        out = tmp_path / "consts"
        assert cli.main(["constants", "--algebra", "cp", "--out", str(out)]) == 0
        lines = (out / "structure_constants_cp.csv").read_text().splitlines()
        assert lines[0] == "i,j,k,num,den"
        assert "14,15,6,1,2" in lines
        assert len(lines) == 65  # header + 64 nonzero constants

    def test_algebra_name_is_case_insensitive(self, tmp_path):
        lower, upper = tmp_path / "lower", tmp_path / "upper"
        assert cli.main(["constants", "--algebra", "cp", "--out", str(lower)]) == 0
        assert cli.main(["constants", "--algebra", "CP", "--out", str(upper)]) == 0
        name = "structure_constants_cp.csv"
        assert (upper / name).read_bytes() == (lower / name).read_bytes()

    def test_lp_export(self, tmp_path):
        out = tmp_path / "consts"
        assert cli.main(["constants", "--algebra", "lp", "--out", str(out)]) == 0
        lines = (out / "structure_constants_lp.csv").read_text().splitlines()
        assert lines[1:] == ["2,3,1,1,1", "2,4,3,2,1"]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_configs_run(name, tmp_path):
    cfg = CONFIGS / f"{name}.json"
    out = tmp_path / name
    assert cli.main(["params", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "params.csv").exists() and (out / "summary.json").exists()


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_configs_are_the_verify_systems(name):
    # liegate verify checks these systems; a config edit must not drift
    kind, problem = cli.build_problem(cli.load_config(str(CONFIGS / f"{name}.json"), {}))
    if kind == "1d":
        reference, names = suite_systems()[name], "abcdeg"
    else:
        reference, names = suite_fields()[name], ("m", "B", "K", "Ex", "Ey")
        assert problem.charge == reference.charge
    assert problem.hbar == reference.hbar
    t = np.linspace(0.0, 2.0, 41)
    for key in names:
        ours, theirs = getattr(problem, key), getattr(reference, key)
        assert np.array_equal(ours(t), theirs(t)), key
        assert np.array_equal(ours.derivative(t), theirs.derivative(t)), key


def test_seed_config_key_is_rejected(tmp_path, capsys):
    cfg = sho_config(tmp_path, seed=1)
    code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["field"] == "seed"


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def broken(cfg, out_dir):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_params", broken)
    code = cli.main(["params", "--config", sho_config(tmp_path),
                     "--out", str(tmp_path / "x")])
    assert code == 5
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"exit_code": 5, "type": "RuntimeError", "message": "boom"}


def test_missed_positivity_dip_ends_in_json_not_traceback(tmp_path, capsys):
    # a(t) reads 1 at every uniform probe point at this frequency and dips
    # below zero between them; the probe of the sinusoid's trough finds it
    cfg = write_config(tmp_path, "dip.json", {
        "system": "gho", "t_end": 1,
        "coefficients": {"a": {"kind": "sinusoid", "amplitude": 1.5,
                               "omega": 1608.4954386379741, "phase": 0,
                               "offset": 1}},
    })
    code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 3
    err = json.loads(captured.out)["error"]
    assert err["exit_code"] == 3 and err["type"] == "DomainError"
    assert "a(t) must stay positive" in err["message"]
    assert "Traceback" not in captured.out + captured.err


def test_negative_planar_mass_is_domain_error(tmp_path, capsys):
    # the same dip in the mass: 1/m runs into a pole as m falls to zero, so
    # an unchecked solve fails on step size before it ever sees m <= 0
    cfg = write_config(tmp_path, "dip2d.json", {
        "system": "cp2d", "t_end": 1,
        "field": {"m": {"kind": "sinusoid", "amplitude": 1.5,
                        "omega": 1608.4954386379741, "offset": 1.0}, "B": 1},
    })
    code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "DomainError"
    assert "m(t) must stay positive" in err["message"]


# splines through 1 at 0, 0.5, 0.5 + 1/256 and 1, which read 1 at every
# uniform probe point k/256 of [0, 1]: one with a knot at -0.5 between two
# probe points, one whose knots are all positive but which dips to -0.31
DIP_KNOTS = {
    "knot": [[0, 1], [0.5, 1], [0.501953125, -0.5], [0.50390625, 1], [1, 1]],
    "between": [[0, 1], [0.5, 1], [0.5009765625, 0.05], [0.5029296875, 0.05],
                [0.50390625, 1], [1, 1]],
}


@pytest.mark.parametrize("dip", sorted(DIP_KNOTS))
def test_tabulated_mass_dip_is_domain_error(tmp_path, capsys, dip):
    # an unchecked solve runs into the 1/m pole and fails on step size
    cfg = write_config(tmp_path, "tab2d.json", {
        "system": "cp2d", "t_end": 1,
        "field": {"m": {"kind": "tabulated", "knots": DIP_KNOTS[dip]}, "B": 1},
    })
    code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "DomainError"
    assert "m(t) must stay positive on [0, 1.0]" in err["message"]


def test_python_m_liegate_runs_the_cli(tmp_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "liegate", "constants", "--algebra", "lp",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = (tmp_path / "structure_constants_lp.csv").read_text().splitlines()
    assert rows[0] == "i,j,k,num,den" and len(rows) > 1


@pytest.mark.parametrize("profile, key", [
    ({"kind": "sinusoid", "omega": 2}, "amplitude"),
    ({"kind": "tabulated", "knots": [1, 2]}, "knots"),
    ({"kind": "constant", "value": "one"}, "value"),
], ids=["missing-key", "bad-knots", "non-numeric"])
def test_malformed_profile_is_config_error(tmp_path, capsys, profile, key):
    cfg = write_config(tmp_path, "bad.json", {
        "system": "gho", "t_end": 1.0, "coefficients": {"a": 1.0, "c": profile},
    })
    code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["field"] == "coefficients.c"
    assert key in err["message"]


def test_missing_config_file(tmp_path, capsys):
    code = cli.main(["params", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "not found" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_seventeen_digit_serialization(tmp_path):
    cfg = sho_config(tmp_path)
    out = tmp_path / "digits"
    cli.main(["params", "--config", cfg, "--out", str(out)])
    summary = (out / "summary.json").read_text()
    # pi/4 rendered with enough digits to round-trip exactly
    assert "0.78539816339744828" in summary
