"""Command-line interface: contracts, exit codes, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liegate import cli, greens, paramflow, presets, verify
from liegate.coeffs import Derived
from liegate.oracle import gaussian_state
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


def sho_kernel(cfg):
    """The kernel ``liegate kernel`` builds for a sho_config, built directly."""
    _, problem = cli.build_problem(cli.load_config(cfg, {}))
    traj = paramflow.solve_path1(problem, math.pi / 4, 1e-12)
    return greens.kernel_build(traj, math.pi / 4, "path1")


def no_solve(*args, **kwargs):
    raise AssertionError("the command solved before rejecting its input")


class TestParams:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        # the columns are the ParamSample fields; route 1 adds v, vdot
        cfg = sho_config(tmp_path, samples=11)
        columns = "t,S,lam,Pi,gamma,alpha,phi,vphi,beta,u,udot"
        for path, header in (("path1", columns + ",v,vdot"), ("path2", columns)):
            out = tmp_path / path
            code = cli.main(["params", "--system", "gho", "--path", path,
                             "--config", cfg, "--out", str(out)])
            assert code == 0
            assert (out / "params.csv").read_text().splitlines()[0] == header
            data = np.genfromtxt(out / "params.csv", delimiter=",", names=True)
            assert data["t"].size == 11
            summary = json.loads((out / "summary.json").read_text())
            assert summary["system"] == "gho"
            # the last row and the summary sample t_end alike, to the bit
            assert {k: data[k][-1] for k in summary["final"]} == summary["final"]
        summary = json.loads((tmp_path / "path1" / "summary.json").read_text())
        assert summary["final"]["alpha"] == pytest.approx(1.0, abs=1e-9)
        assert summary["final"]["beta"] == pytest.approx(1.0, abs=1e-9)

    def test_negative_t_end_is_config_error(self, tmp_path, capsys):
        # a non-finite horizon or tolerance used to reach the solver and
        # hang; a command line argparse rejects used to leave stdout empty
        cfg = sho_config(tmp_path)
        cases = [(["--config", cfg, flag, value], flag[2:].replace("-", "_"))
                 for flag, value in [("--t-end", "-1.0"), ("--t-end", "nan"),
                                     ("--t-end", "inf"), ("--tol", "nan"),
                                     ("--tol", "inf"), ("--t-end", "-inf"),
                                     ("--t-end", "abc")]]
        cases += [(["--t-end", "1.0"], "config"), (["--config", cfg, "--bogus"], "bogus")]
        for argv, field in cases:
            code = cli.main(["params", *argv, "--out", str(tmp_path / "x")])
            assert code == 2
            err = json.loads(capsys.readouterr().out)["error"]
            assert err["type"] == "ConfigError" and err["field"] == field

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            cli.main(["params", "--help"])
        assert done.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "system": "gho", "coefficients": {"a": 1.0}, "t_end": 1.0,
            "extra_knob": 1,
        })
        code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["field"] == "extra_knob"

    def test_kanai_without_a_closed_form_solves(self, tmp_path):
        # the preset accepts every system the ODE solves, closed form or not
        exact = {
            # a = e^-t, c = 0, e = -e^t: Pi = 1 - e^t, lam = t + e^-t - 1
            "constant force": ({"omega0": 0.0, "F0": 1.0},
                               {"lam": math.exp(-1.0), "Pi": 1.0 - math.e}),
            # u'' + u' + u/4 = 0: u = (1 + t/2) e^(-t/2)
            "critical damping": ({"omega0": 0.5}, {"u": 1.5 * math.exp(-0.5)}),
        }
        for name, (params, final) in exact.items():
            cfg = write_config(tmp_path, "kanai.json", {
                "system": "kanai", "params": {"m": 1.0, "tau": 1.0, **params},
                "t_end": 1.0, "tol": 1e-12,
            })
            out = tmp_path / name.replace(" ", "_")
            assert cli.main(["params", "--config", cfg, "--out", str(out)]) == 0, name
            summary = json.loads((out / "summary.json").read_text())["final"]
            assert {k: summary[k] for k in final} == pytest.approx(final, abs=1e-9), name

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
        assert header == "t,S,gamma,alpha,phi,vphi,beta,u,udot,theta,lam_x,lam_y,Pi_x,Pi_y"

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
        # every field as kernel_build returns it, complex values as [re, im]
        kernel = sho_kernel(cfg)
        assert (payload["system"], payload["variant"]) == ("gho", "path1")
        for field in dataclasses.fields(kernel):
            value, written = getattr(kernel, field.name), payload[field.name]
            if isinstance(value, (complex, np.ndarray)):
                pairs = np.asarray(written)
                assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], value), field.name
            else:  # valid_to is null when no focal time precedes the horizon
                assert written == (None if value == math.inf else value), field.name

    def test_kernel_t_inside_the_horizon(self, tmp_path):
        cfg = sho_config(tmp_path, kernel_t=0.5)
        out = tmp_path / "krun"
        assert cli.main(["kernel", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "kernel.json").read_text())["t"] == 0.5

    @pytest.mark.parametrize("extra, argv", [
        ({"kernel_t": 1.0}, []),
        ({"kernel_t": 0.7, "t_end": 2.0}, ["--t-end", "0.6"]),
    ], ids=["config", "t-end-override"])
    def test_kernel_t_past_t_end_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                 extra, argv):
        # checked against the horizon after --t-end, before anything is solved
        monkeypatch.setattr(paramflow, "solve_path1", no_solve)
        code = cli.main(["kernel", "--config", sho_config(tmp_path, **extra), *argv,
                         "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ConfigError" and err["field"] == "kernel_t"
        assert not (tmp_path / "x" / "kernel.json").exists()

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
        psi = greens.kernel_apply(sho_kernel(cfg), gaussian_state(256, -8.0, 16.0 / 256))
        x, re, im = np.loadtxt(out / "psi_out.csv", delimiter=",", skiprows=1, unpack=True)
        assert np.array_equal(x, psi.x)
        assert np.array_equal(re, psi.amps.real) and np.array_equal(im, psi.amps.imag)

    def test_apply_outputs_are_byte_identical(self, tmp_path):
        cfg = sho_config(tmp_path, grid={"n": 256, "x_min": -8.0, "dx": 16.0 / 256})
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        for out in (out1, out2):
            assert cli.main(["kernel", "--config", cfg, "--out", str(out),
                             "--apply", "gaussian(sigma=1)"]) == 0
        for name in ("kernel.json", "psi_out.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_apply_spec(self, tmp_path, capsys, monkeypatch):
        # rejected before the solve, so no kernel.json is left behind
        monkeypatch.setattr(paramflow, "solve_path1", no_solve)
        cfg = sho_config(tmp_path)
        for spec in ("gaussian(width=1)", "gaussian(sigma=nan)", "gaussian(x0=inf)", "bogus"):
            code = cli.main(["kernel", "--config", cfg, "--out", str(tmp_path / "x"),
                             "--apply", spec])
            assert code == 2
            err = json.loads(capsys.readouterr().out)["error"]
            assert err["field"] == "apply"
            assert not (tmp_path / "x" / "kernel.json").exists()

    def test_apply_on_planar_system_is_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(paramflow, "solve_2d", no_solve)
        code = cli.main(["kernel", "--config", str(CONFIGS / "efield.json"),
                         "--out", str(tmp_path), "--apply", "gaussian(sigma=1)"])
        assert code == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DomainError"
        assert err["message"] == "--apply operates on 1D systems"
        assert not (tmp_path / "kernel.json").exists()


def nudged(solve, index):
    """``solve`` whose trajectories add 1e-4 to component ``index`` of the
    base solution that ``sample`` reads."""

    def wrapped(*args, **kwargs):
        traj = solve(*args, **kwargs)

        def base(t):
            y = list(traj._base(t))
            y[index] += 1e-4
            return y

        return dataclasses.replace(traj, _base=base)

    return wrapped


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

    def test_route_two_action_is_checked(self, monkeypatch):
        # (lam, Pi, S, phi): route 2's S moves by 1e-4, its map does not
        monkeypatch.setattr(paramflow, "solve_path2", nudged(paramflow.solve_path2, 2))
        result = verify.check_path_equivalence(7)
        assert not result.passed
        assert result.parts["action"] == pytest.approx(1e-4, rel=1e-3)

    def test_route_one_translation_is_checked(self, monkeypatch):
        # (lam, Pi, S, bint, u, udot, v, vdot): route 1's lam moves by 1e-4
        monkeypatch.setattr(paramflow, "solve_path1", nudged(paramflow.solve_path1, 0))
        result = verify.check_classical_identification(7)
        assert not result.passed
        assert result.measured == pytest.approx(1e-4, rel=1e-3)

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_config_error(self, tmp_path, capsys, seed):
        out = tmp_path / "v"
        assert cli.main(["verify", "--seed", seed, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ConfigError" and err["field"] == "seed"
        assert not (out / "report.json").exists()


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

    # exact rationals, so these hashes hold on every platform
    @pytest.mark.parametrize("algebra,sha256", [
        ("lp", "c397fa8508aa5b6ac19c43b261b985f2618a2088686a15509b8aef68c9aa048d"),
        ("gho", "8d05f946a0dd3ff40ae23db73063b10ad6ba20285dc277dae0973db408fc1bb7"),
        ("cp", "348056c39787e8cc19279a41fa453aeb7bf8624378f2a4913f6a343c308c72cc"),
    ])
    def test_export_bytes_are_pinned(self, tmp_path, algebra, sha256):
        assert cli.main(["constants", "--algebra", algebra, "--out", str(tmp_path)]) == 0
        data = (tmp_path / f"structure_constants_{algebra}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256


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


@pytest.mark.parametrize("argv, extra, field", [
    (["params"], {"samples": 10**13}, "samples"),
    (["kernel", "--apply", "gaussian(sigma=1)"], {"grid": {"n": 10**13}}, "grid.n"),
], ids=["samples", "grid-n"])
def test_oversized_output_is_config_error(tmp_path, capsys, monkeypatch, argv, extra, field):
    # 10**13 samples or grid points would ask for tens of TiB: exit 2 from
    # the configuration check, before the solve allocates anything
    monkeypatch.setattr(paramflow, "solve_path1", no_solve)
    code = cli.main([*argv, "--config", sho_config(tmp_path, **extra),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ConfigError" and err["field"] == field
    assert not (tmp_path / "x").exists()


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


# the same dip in the mass, m = 1 + 1.5 sin(512 pi t)
DIP_2D = {
    "system": "cp2d", "t_end": 1,
    "field": {"m": {"kind": "sinusoid", "amplitude": 1.5,
                    "omega": 1608.4954386379741, "offset": 1.0}, "B": 1},
}


def test_negative_planar_mass_is_domain_error(tmp_path, capsys):
    # 1/m runs into a pole as m falls to zero, so an unchecked solve fails
    # on step size before it ever sees m <= 0
    cfg = write_config(tmp_path, "dip2d.json", DIP_2D)
    code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "DomainError"
    assert "m(t) must stay positive" in err["message"]


def test_derived_planar_mass_pole_is_domain_error(tmp_path, capsys, monkeypatch):
    # behind Derived the probe misses the dip and the solve fails on step
    # size at the pole; the mass is then probed past the failure time
    build = cli.build_problem

    def derived_mass(cfg):
        kind, field = build(cfg)
        return kind, dataclasses.replace(field, m=Derived(field.m, field.m.derivative))

    monkeypatch.setattr(cli, "build_problem", derived_mass)
    cfg = write_config(tmp_path, "dip2d.json", DIP_2D)
    code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "DomainError"
    assert "m(t) must stay positive on [0, 1.0]" in err["message"]


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


def run_module(*args):
    """``python -m liegate args`` in a subprocess, with a timeout."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "liegate", *args],
                          env=env, capture_output=True, text=True, timeout=60)


def test_non_finite_t_end_exits_without_solving(tmp_path):
    # a solve that never ends fails on the timeout instead of stalling the suite
    done = run_module("params", "--config", str(CONFIGS / "sho.json"),
                      "--t-end", "nan", "--out", str(tmp_path))
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout)["error"]["field"] == "t_end"


def test_huge_finite_t_end_spends_the_work_budget(tmp_path, capsys, monkeypatch):
    # with the shipped budget this ends after about 3e5 RHS evaluations
    from liegate import paramflow

    monkeypatch.setattr(paramflow, "_RHS_BUDGET", 3000)
    code = cli.main(["params", "--config", str(CONFIGS / "sho.json"), "--t-end", "1e300",
                     "--tol", "1e-3", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    err = json.loads(captured.out)["error"]
    assert err["type"] == "IntegrationError"
    assert "work budget of 3000 right-hand-side evaluations spent by t = " in err["message"]


def test_python_m_liegate_runs_the_cli(tmp_path):
    done = run_module("constants", "--algebra", "lp", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    rows = (tmp_path / "structure_constants_lp.csv").read_text().splitlines()
    assert rows[0] == "i,j,k,num,den" and len(rows) > 1


@pytest.mark.parametrize("profile, key", [
    ({"kind": "sinusoid", "omega": 2}, "amplitude"),
    ({"kind": "tabulated", "knots": [1, 2]}, "knots"),
    ({"kind": "constant", "value": "one"}, "value"),
    (math.nan, "finite"),
    (10**400, "finite"),
    ({"kind": "sinusoid", "amplitude": math.inf, "omega": 2}, "amplitude"),
], ids=["missing-key", "bad-knots", "non-numeric", "nan-number", "huge-int",
        "inf-amplitude"])
def test_malformed_profile_is_config_error(tmp_path, capsys, profile, key):
    cfg = write_config(tmp_path, "bad.json", {
        "system": "gho", "t_end": 1.0, "coefficients": {"a": 1.0, "c": profile},
    })
    code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["field"] == "coefficients.c"
    assert key in err["message"]


def test_overflowing_spline_is_config_error(tmp_path):
    # finite knots whose spline slopes overflow: its coefficients are not finite
    cfg = write_config(tmp_path, "overflow.json", {
        "system": "gho", "t_end": 0.5, "coefficients": {
            "a": {"kind": "tabulated", "knots": [[0, 1], [0.5, 1e308], [1, 1.1]]}, "c": 1.0},
    })
    done = run_module("params", "--config", cfg, "--out", str(tmp_path / "x"))
    assert done.returncode == 2
    assert done.stderr == ""
    err = json.loads(done.stdout)["error"]
    assert err["field"] == "coefficients.a"
    assert "not finite" in err["message"]


def test_missing_config_file(tmp_path, capsys):
    code = cli.main(["params", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "not found" in json.loads(capsys.readouterr().out)["error"]["message"]


@pytest.mark.parametrize("text", ['{"system": "gho",', '{"t_end": 1' + "0" * 5000 + "}"],
                         ids=["truncated", "int-past-digit-limit"])
def test_unparsable_config_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = cli.main(["params", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["field"] == "config"


def test_seventeen_digit_serialization(tmp_path):
    cfg = sho_config(tmp_path)
    out = tmp_path / "digits"
    cli.main(["params", "--config", cfg, "--out", str(out)])
    summary = (out / "summary.json").read_text()
    # pi/4 rendered with enough digits to round-trip exactly
    assert "0.78539816339744828" in summary


def test_system_choices_are_the_presets():
    # the parser's --system choices are written out so that cli needs no
    # preset (and no numpy) to parse a command line
    assert cli.SYSTEMS == tuple(presets.PRESETS)


# Knot lists for the property below: 2 to 12 knots from t = 0, with gaps
# from one ulp (near-equal times) to 1e3 and values from 1e-8 to 1e8 in
# size; half the lists also draw from the extremes: a 1e300 gap, and zeros,
# subnormals and values near the float limit.
def knot_gap(exponent: int) -> float:
    return 0.0 if exponent < -16 else 10.0 ** exponent   # 0.0: the next float


GAPS = st.integers(-17, 3).map(knot_gap)
SIZES = st.integers(-8, 8).map(lambda k: 10.0 ** k)
EXTREME_GAPS = st.one_of(GAPS, st.just(1e300))
EXTREME_SIZES = st.one_of(SIZES, st.sampled_from([0.0, 5e-324, 1e300, 1.7e308]))


@st.composite
def knot_lists(draw):
    n = draw(st.integers(2, 12))
    gaps, sizes = (EXTREME_GAPS, EXTREME_SIZES) if draw(st.booleans()) else (GAPS, SIZES)
    times = [0.0]
    for gap in draw(st.lists(gaps, min_size=n - 1, max_size=n - 1)):
        times.append(max(times[-1] + gap, math.nextafter(times[-1], math.inf)))
    values = st.one_of(st.builds(lambda sign, size: sign * size,
                                 st.sampled_from([1.0, -1.0]), sizes),
                       st.floats(-10.0, 10.0))
    return [[t, v] for t, v in zip(times, draw(st.lists(values, min_size=n, max_size=n)))]


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(knots=knot_lists(), name=st.sampled_from(["a", "e"]), share=st.floats(1e-3, 1.0))
# a force whose translation parameters overflow: the solve ends in
# step-size underflow with no numpy warning (the test configuration turns a
# warning into an exception, which the CLI reports as exit 5)
@example(knots=[[0.0, -8.7], [7.9, 1e300]], name="e", share=0.5)
def test_tabulated_specs_end_in_a_documented_exit(knots, name, share):
    # the spline's error paths (a non-finite spline, a tabulated a(t) that
    # is not positive) and the solves behind them end in exit 0, 2, 3 or 4
    # with the JSON error object, never in a traceback.  The spline is the
    # mass term of a free particle or the force on a unit oscillator, so no
    # solve's work grows with the spline's size (a large a*c is a fast
    # oscillator, which the work budget stops only after seconds).
    coefficients = {"a": 1.0, "c": 0.0 if name == "a" else 1.0,
                    name: {"kind": "tabulated", "knots": knots}}
    config = {"system": "gho", "t_end": min(knots[-1][0], 1.0) * share,
              "coefficients": coefficients, "samples": 3}
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["params", "--config", str(path), "--out", tmp])
    assert code in (0, 2, 3, 4), out.getvalue()
    assert err.getvalue() == "" and "Traceback" not in out.getvalue()
    if code:
        assert json.loads(out.getvalue())["error"]["exit_code"] == code
    else:
        assert out.getvalue() == ""
