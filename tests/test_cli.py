"""Command-line interface: contracts, exit codes, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liegate import cli, closedforms, greens, maps, ode, oracle, paramflow, quadops, verify
from liegate.coeffs import CoefficientSet1D, Derived
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
    problem = cli.build_problem(cli.load_config(cfg, {}))
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

    @pytest.mark.parametrize("extra, spec, message", [
        ({}, "gaussian(sigma=1e300)", "Gaussian packet"),
        ({}, "gaussian(sigma=1e-300)", "Gaussian packet"),
        ({}, "gaussian(sigma=1,p0=1e308)", "Gaussian packet"),
        ({}, "gaussian(sigma=1,x0=1e200)", "cannot normalize the zero wavefunction"),
        ({"kernel_t": 1e-307}, "gaussian(sigma=1)", "applied kernel"),
        ({"grid": {"n": 8, "dx": 1e300}}, "gaussian(sigma=1)", "applied kernel"),
    ], ids=["sigma-1e300", "sigma-1e-300", "p0-1e308", "x0-1e200", "kernel_t-1e-307",
            "dx-1e300"])
    def test_an_apply_that_cannot_be_sampled_is_domain_error(self, tmp_path, capsys, extra,
                                                             spec, message):
        # numpy's overflow warnings stay silent, no NaN row is written, and a
        # packet is refused before the solve, so it leaves no kernel.json
        cfg = sho_config(tmp_path, t_end=1.0, **extra)
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["kernel", "--config", cfg, "--out", str(out), "--apply", spec])
        captured = capsys.readouterr()
        assert code == 3 and captured.err == "" and caught == []
        err = json.loads(captured.out)["error"]
        assert err["type"] == "DomainError" and message in err["message"]
        assert not (out / "psi_out.csv").exists()
        assert (out / "kernel.json").exists() is (message == "applied kernel")

    def test_apply_on_planar_system_is_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(paramflow, "solve_2d", no_solve)
        code = cli.main(["kernel", "--config", str(CONFIGS / "efield.json"),
                         "--out", str(tmp_path), "--apply", "gaussian(sigma=1)"])
        assert code == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DomainError"
        assert err["message"] == "--apply operates on 1D systems"
        assert not (tmp_path / "kernel.json").exists()


EXTREME_KERNEL_SYSTEMS = {
    "gho": {"system": "gho", "coefficients": {"a": 1.0, "c": 1.0}},
    "cp2d": {"system": "cp2d", "field": {"m": 1, "B": 1, "K": 1}},
}


@pytest.mark.parametrize("kernel_t, code", [(1e-160, 0), (1e-200, 0), (1e-300, 0), (1e-310, 3)])
@pytest.mark.parametrize("system", sorted(EXTREME_KERNEL_SYSTEMS))
def test_extreme_kernel_times_warn_of_nothing(tmp_path, capsys, system, kernel_t, code):
    # near t = 1e-300 the kernel's entries reach 1e300, and at 1e-310 they
    # overflow (inf * 0 is NaN): the first kernel is written and the second
    # refused by the finite check, with no numpy warning in either
    cfg = write_config(tmp_path, "kt.json", {**EXTREME_KERNEL_SYSTEMS[system], "t_end": 1.0,
                                             "kernel_t": kernel_t})
    out = tmp_path / "x"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cli.main(["kernel", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert (got, captured.err, [str(w.message) for w in caught]) == (code, "", [])
    if code:
        assert json.loads(captured.out)["error"]["type"] == "DomainError"
        assert not (out / "kernel.json").exists()
    else:
        assert json.loads((out / "kernel.json").read_text())["t"] == kernel_t


def on_call(func, call, change):
    """``func`` whose result passes through ``change`` at call number ``call``
    (counted from 1) only, or at every call if ``call`` is None."""
    calls = itertools.count(1)

    def wrapped(*args, **kwargs):
        result = func(*args, **kwargs)
        return change(result) if call is None or next(calls) == call else result

    return wrapped


def nudged(solve, index, by=1e-4, call=None):
    """``solve`` whose trajectories add ``by`` to component ``index`` of the
    base solution that ``sample`` reads: every trajectory, or only the one
    of call number ``call``."""

    def nudge(traj):
        def base(t):
            y = list(traj._base(t))
            y[index] += by
            return y

        return dataclasses.replace(traj, _base=base)

    return on_call(solve, call, nudge)


def counted_solves(monkeypatch) -> list:
    """The name of every ``ode.solve`` call from now on, as they are made."""
    calls, solve = [], ode.solve

    def counting(*args, **kwargs):
        calls.append(args[5])
        return solve(*args, **kwargs)

    monkeypatch.setattr(ode, "solve", counting)
    return calls


def first_entry_nan(frame):
    frame = frame.copy()
    frame.flat[0] = math.nan
    return frame


# check -> (part, module, function, how it turns one result NaN, the check's
# call): each NaN comes mid-stream, and finite gaps follow it
NAN_CASES = {
    "symplectic_invariants": (
        "det", maps, "check_symplectic",
        lambda f: on_call(f, 100, lambda r: (math.nan, r[1])),
        lambda: verify.check_symplectic(7)),
    "path_equivalence": (  # route 2's S, iontrap (the second case)
        "action", paramflow, "solve_path2", lambda f: nudged(f, 2, math.nan, call=2),
        lambda: verify.check_path_equivalence(7)),
    "oracle_map_equivalence": (  # one fundamental-matrix entry of 44 1D samples
        "1d", oracle.FlowResult, "at", lambda f: on_call(f, 20, first_entry_nan),
        verify.check_oracle_maps),
    "classical_identification": (  # route 1's lam, the first random system
        "1d", paramflow, "solve_path1", lambda f: nudged(f, 0, math.nan, call=2),
        lambda: verify.check_classical_identification(7)),
    "closed_form_crosschecks": (  # route 1's lam of the second system, kanai
        "kanai", paramflow, "solve_path1", lambda f: nudged(f, 0, math.nan, call=2),
        verify.check_closed_forms),
    "mathieu_selfconsistency": (  # C of the fifth halving pair: (0.5, 0.4) at z = 1.5
        "halving_drift", closedforms, "mathieu_cs",
        lambda f: on_call(f, 3, lambda es: [dataclasses.replace(e, C=math.nan)
                                            if e.z == 1.5 else e for e in es]),
        verify.check_mathieu),
    "kernel_sanity": (  # the second of four unitarity residuals
        "unitarity", greens, "kernel_unitarity_residual",
        lambda f: on_call(f, 2, lambda r: math.nan), verify.check_kernels),
}


def spoil(monkeypatch, name):
    """Install the NaN of ``NAN_CASES[name]``; return its part and check."""
    part, owner, attr, change, check = NAN_CASES[name]
    monkeypatch.setattr(owner, attr, change(getattr(owner, attr)))
    return part, check


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

    def test_a_run_solves_each_trajectory_once(self, monkeypatch):
        # each (system, route) the checks declare is solved once, to its
        # longest horizon (sho's route 1 at six horizons, its semigroup tail
        # among them since sho shifted is sho; iontrap's at four; efield's
        # planar solve at three), each (a, q, tol) of the Mathieu check
        # once, to z = 3, and the iontrap and bsin closed forms one crossing
        # probe and one 1/C^2 quadrature each, to their last sample time: 66
        # solves, where a solve per read made 129; a second run shares
        # nothing with the first
        calls = counted_solves(monkeypatch)
        first = verify.run_suite(0)
        assert len(calls) == 66
        assert verify.run_suite(0) == first
        assert len(calls) == 2 * 66

    def test_a_kernel_check_alone_solves_each_trajectory_once(self, monkeypatch):
        # sho's route 1 is read at 1.2, pi/4 * 1.05, 1.26 and, as its own
        # semigroup tail, 0.735: one solve each for lp, sho, iontrap and kanai
        # on route 1, one for sho on route 2, and one for each shifted tail
        # but sho's, where a solve per read made 14
        calls = counted_solves(monkeypatch)
        verify.check_kernels()
        assert len(calls) == 8

    def test_a_run_calls_each_check_once_through_the_module(self, monkeypatch):
        # perfbench wraps the checks by name, so run_suite must look each up
        # in the module when it runs
        names = [name for name in dir(verify) if name.startswith("check_")]
        calls = Counter()

        def counting(name, check):
            return lambda *args, **kwargs: calls.update([name]) or check(*args, **kwargs)

        for name in names:
            monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
        verify.run_suite(0)
        assert len(names) == 9 and calls == Counter(names)

    def test_shared_solves_are_held_from_first_to_last_read(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class Solve:   # a trajectory: which solve it was cut from, and its horizon
            made: int
            t_end: float

            def until(self, t_end):
                return Solve(self.made, t_end)

        made = []
        monkeypatch.setattr(paramflow, "solve_path1", lambda cs, t_end, tol: made.append(
            (cs, t_end, tol)) or Solve(len(made), t_end))

        def reads_of(systems, fields, *horizons):
            lp, sho = systems["lp"], systems["sho"]
            return [(lp, "path1", t_end) for t_end in horizons], [(sho, "path1", 2.0)]

        plan = reads_of, 2.0, 1.0, 1.0
        solves, (lp_reads, sho_reads) = verify._serve(None, *plan)
        lp = lp_reads[0][0]
        # lp is solved at its first read, to its longest declared horizon,
        # and then held cut at the longest horizon still to be read
        assert solves.read(*lp_reads[0]) == Solve(1, 2.0)
        assert solves._held == {(lp, "path1"): Solve(1, 1.0)}
        assert [solves.read(*read) for read in sho_reads + lp_reads[1:]] == \
            [Solve(2, 2.0), Solve(1, 1.0), Solve(1, 1.0)]
        assert made == [(lp, 2.0, 1e-12), (sho_reads[0][0], 2.0, 1e-12)]
        assert solves._held == {}
        # a read that was not declared, or was declared fewer times, raises
        # and solves nothing; so does a plan that was not declared
        for t_end in (0.5, 1.0, 2.0):
            with pytest.raises(LookupError, match=f"no declared path1 read to t_end={t_end}"):
                solves.read(lp, "path1", t_end)
        with pytest.raises(LookupError, match=r"no check declared the reads reads_of\(2.0,\)"):
            verify._serve(solves, reads_of, 2.0)
        assert len(made) == 2

    def test_a_check_given_a_store_reads_only_what_it_declared(self):
        # the suite's store declares the symplectic check at 8 random systems
        solves = verify._Solves((verify._symplectic_reads, 0, 8))
        with pytest.raises(LookupError, match="no check declared the reads _symplectic_reads"):
            verify.check_symplectic(0, n_random=2, solves=solves)

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

    @pytest.mark.parametrize("name", NAN_CASES)
    def test_a_nan_gap_fails_its_check(self, monkeypatch, name):
        part, check = spoil(monkeypatch, name)
        result = check()
        assert result.name == name and not result.passed
        assert math.isnan(result.measured) and math.isnan(result.parts[part])
        assert all(math.isfinite(v) for p, v in result.parts.items() if p != part)

    def test_a_nan_gap_fails_verify_and_is_written(self, monkeypatch, tmp_path):
        spoil(monkeypatch, "symplectic_invariants")
        out = tmp_path / "nan"
        assert cli.main(["verify", "--seed", "7", "--out", str(out)]) == 1
        text = (out / "report.json").read_text()
        assert '"measured": "nan"' in text
        failing = [c for c in json.loads(text)["checks"] if not c["passed"]]
        assert [(c["name"], c["measured"]) for c in failing] == \
            [("symplectic_invariants", "nan")]

    def test_mathieu_drift_must_stay_below_its_limit(self, monkeypatch):
        def mathieu_cs(a, q, zs, tol=1e-12):
            # every halving drift is exactly 1e-10, and the pin holds
            return [closedforms.MathieuEval(
                a, q, z, 0.5 if z == math.pi / 3.0 else (0.0 if tol == 5e-13 else 1e-10), 0.0)
                for z in zs]

        monkeypatch.setattr(closedforms, "mathieu_cs", mathieu_cs)
        result = verify.check_mathieu()
        assert not result.passed
        assert result.parts == {"halving_drift": 1e-10, "pin": 0.0}

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
    problem = cli.build_problem(cli.load_config(str(CONFIGS / f"{name}.json"), {}))
    if isinstance(problem, CoefficientSet1D):
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


# configs whose coefficient's float path raises inside a sign check:
# sin(inf) (omega t overflows at t = 2), and 1/0 (m = 1 + sin(pi t) is
# exactly 0.0 at t = 1.5, one of m's extremal times)
RAISING_SIGN_CHECKS = {
    "sin-inf": {"system": "gho", "t_end": 2,
                "coefficients": {"a": {"kind": "sinusoid", "amplitude": 0.5,
                                       "omega": 1.7e308, "offset": 1.0}}},
    "mass-zero": {"system": "lp", "t_end": 3,
                  "params": {"m": {"kind": "sinusoid", "amplitude": 1,
                                   "omega": 3.141592653589793, "offset": 1}, "f": 0.0}},
}


@pytest.mark.parametrize("name, at", [("sin-inf", "2"), ("mass-zero", "1.5")])
def test_a_raising_coefficient_fails_its_sign_check(tmp_path, capsys, name, at):
    # the time at which the float path raises reads as not positive: exit 3
    # before the solve, where an unchecked 1/m runs into its pole
    cfg = write_config(tmp_path, f"{name}.json", RAISING_SIGN_CHECKS[name])
    start = time.perf_counter()
    code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["type"] == "DomainError"
    assert err["message"].startswith("a(t) must stay positive")
    assert err["message"].endswith(f"violated near t={at}")
    assert "Traceback" not in captured.out
    assert elapsed < 0.5


EXP_400T = {"kind": "exponential", "prefactor": 1.0, "rate": 400}
# configs whose coefficient overflows to inf inside its sign check: exp(400 t)
# at t = 2, as route 1's a and as route 2's c
OVERFLOWING_SIGN_CHECKS = {
    "a": {"system": "gho", "t_end": 2, "coefficients": {"a": EXP_400T, "c": 1.0}},
    "c": {"system": "gho", "t_end": 2, "path": "path2",
          "coefficients": {"a": 1.0, "c": EXP_400T}},
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_SIGN_CHECKS))
def test_an_overflowing_coefficient_fails_its_sign_check(tmp_path, capsys, name):
    # inf is refused before the solve, which spends its work budget (a) or
    # ends in step-size underflow (c); numpy's overflow warning stays silent
    cfg = write_config(tmp_path, f"{name}.json", OVERFLOWING_SIGN_CHECKS[name])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
        elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.err == "" and caught == []
    err = json.loads(captured.out)["error"]
    assert err["type"] == "DomainError"
    assert err["message"].startswith(f"{name}(t) must stay finite on [0, 2.0]")
    assert "it overflows near t=2" in err["message"]
    assert elapsed < 0.5


@pytest.mark.parametrize("c, advised", [(EXP_400T, False), (-1.0, True)])
def test_route_two_advises_route_one_only_for_a_c_that_is_not_positive(
        tmp_path, capsys, c, advised):
    # route 1 solves c = -1, but not a c that overflows to inf
    cfg = write_config(tmp_path, "c.json", {"system": "gho", "t_end": 2,
                                            "coefficients": {"a": 1.0, "c": c}})
    code = cli.main(["params", "--config", cfg, "--path", "path2",
                     "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 3 and captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["type"] == "DomainError"
    assert ("use route 1" in err["message"]) is advised


def test_a_mass_dip_between_grid_points_refuses_the_lp_solve(tmp_path, capsys):
    # 1/m reads the sinusoid mass's trough, which 257 uniform points all
    # miss; unchecked, the solve spends its work budget at the 1/m pole
    cfg = write_config(tmp_path, "lpdip.json", {
        "system": "lp", "t_end": 1.0,
        "params": {"m": {"kind": "sinusoid", "amplitude": 1.5, "omega": 1608.5,
                         "offset": 1.0}, "f": 0.0},
    })
    start = time.perf_counter()
    code = cli.main(["params", "--config", cfg, "--out", str(tmp_path / "x")])
    elapsed = time.perf_counter() - start
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 3 and err["type"] == "DomainError"
    assert err["message"].startswith("a(t) must stay positive on [0, 1.0]")
    assert err["message"].endswith("violated near t=0.00292968")
    assert elapsed < 0.5


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
        field = build(cfg)
        return dataclasses.replace(field, m=Derived(field.m, field.m.derivative))

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
    from liegate import ode

    monkeypatch.setattr(ode, "_RHS_BUDGET", 3000)
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


def test_unknown_system_is_config_error(tmp_path, capsys):
    # --system is checked against the preset table once the config is read,
    # so a missing config file is reported first
    cfg = sho_config(tmp_path)
    listed = write_config(tmp_path, "listed.json", {"system": ["gho"], "t_end": 1.0})
    errors = []
    for argv in (["--system", "nosuch", "--config", cfg], ["--config", listed],
                 ["--system", "nosuch", "--config", str(tmp_path / "nope.json")]):
        assert cli.main(["params", *argv, "--out", str(tmp_path / "x")]) == 2
        errors.append(json.loads(capsys.readouterr().out)["error"])
    assert [err["field"] for err in errors] == ["system", "system", "config"]
    assert errors[0]["message"] == ("field 'system' must be one of lp, gho, iontrap, kanai, "
                                    "cp2d, bsin, efield; got 'nosuch'")


def test_unknown_path_is_config_error(tmp_path, capsys):
    # --path is checked once, by validate_config: on the command line and in
    # the config file it gets the same message and field
    errors = []
    for cfg, argv in ((sho_config(tmp_path), ["--path", "nosuch"]),
                      (sho_config(tmp_path, path="nosuch"), [])):
        assert cli.main(["params", "--config", cfg, *argv, "--out", str(tmp_path / "x")]) == 2
        errors.append(json.loads(capsys.readouterr().out)["error"])
    assert errors[0] == errors[1]
    assert errors[0]["field"] == "path"
    assert errors[0]["message"] == "field 'path' must be 'path1' or 'path2', got 'nosuch'"


SHO = {"system": "gho", "coefficients": {"a": 1.0, "c": 1.0}, "t_end": 1.0}


@pytest.mark.parametrize("payload, apply, field, message", [
    ({"system": "gho", "coefficients": {"a": 1.0}}, None, "t_end",
     "missing required field 't_end'"),
    ({**SHO, "grid": 3}, None, "grid", "field 'grid' must be an object"),
    ({**SHO, "grid": {"nx": 8}}, None, "grid.nx", "unknown grid key 'nx'"),
    ({**SHO, "grid": {"dx": -1}}, None, "grid.dx", "field 'grid.dx' must be positive, got -1"),
    ({**SHO, "grid": {"x_min": "a"}}, None, "grid.x_min", "field 'grid.x_min' must be a number"),
    ({"system": "lp", "params": 3, "t_end": 1.0}, None, "params",
     "system 'lp' requires a 'params' object"),
    ({"system": "lp", "params": {"q": 1.0}, "t_end": 1.0}, None, "params.q",
     "unknown parameter 'q' for system 'lp'"),
    ({"system": "iontrap", "params": {"m": "one"}, "t_end": 1.0}, None, "params.m",
     "field 'params.m' must be a number"),
    ({**SHO, "coefficients": {"a": 1.0, "c": [1.0]}}, None, "coefficients.c",
     "field 'coefficients.c' must be a number or a profile object"),
    (SHO, "gaussian(sigma)", "apply", "malformed --apply entry 'sigma'"),
    (SHO, "gaussian(sigma=wide)", "apply", "--apply parameter 'sigma' must be a number"),
    (SHO, "gaussian(sigma=0)", "apply", "--apply sigma must be positive"),
    (SHO, "gaussian(sigma=-1)", "apply", "--apply sigma must be positive"),
], ids=["no-t_end", "grid-not-object", "grid-unknown-key", "grid-dx", "grid-x_min",
        "section-not-object", "unknown-parameter", "parameter-not-number",
        "profile-neither", "apply-no-equals", "apply-not-number", "apply-zero-sigma",
        "apply-negative-sigma"])
def test_config_refusals_name_their_field(tmp_path, capsys, monkeypatch, payload, apply, field,
                                          message):
    # each is refused before the solve: exit 2 and one JSON object on stdout
    monkeypatch.setattr(paramflow, "solve_path1", no_solve)
    cfg = write_config(tmp_path, "bad.json", payload)
    argv = ["params"] if apply is None else ["kernel", "--apply", apply]
    assert cli.main([*argv, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["field"], err["message"]) == ("ConfigError", field, message)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text", ['{"system": "gho",', '{"t_end": 1' + "0" * 5000 + "}"],
                         ids=["truncated", "int-past-digit-limit"])
def test_unparsable_config_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = cli.main(["params", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["field"] == "config"


def test_a_directory_as_config_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(paramflow, "solve_path1", no_solve)
    code = cli.main(["params", "--config", str(CONFIGS), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["field"]) == ("ConfigError", "config")
    assert err["message"] == f"config file cannot be read: {CONFIGS}: Is a directory"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", [
    ["params", "--config", str(CONFIGS / "sho.json")],
    ["kernel", "--config", str(CONFIGS / "sho.json"), "--apply", "gaussian(sigma=1)"],
    ["verify", "--seed", "0"],
    ["constants", "--algebra", "lp"],
], ids=["params", "kernel", "verify", "constants"])
@pytest.mark.parametrize("below", ["", "sub", "sub/deeper"])
def test_an_out_at_or_under_a_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                               command, below):
    # makedirs would fail with FileExistsError or NotADirectoryError, and
    # verify would reach it only after its whole suite
    for owner, attr in ((paramflow, "solve_path1"), (verify, "run_suite"),
                        (quadops, "structure_constants")):
        monkeypatch.setattr(owner, attr, no_solve)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert cli.main([*command, "--out", str(taken / below)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["field"]) == ("ConfigError", "out")
    assert err["message"] == f"--out must name a directory, and {taken} is not one"
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept"


def test_an_out_that_cannot_be_made_is_config_error(tmp_path, capsys, monkeypatch):
    def denied(path, exist_ok=False):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "makedirs", denied)
    assert cli.main(["constants", "--algebra", "lp", "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["field"], err["message"]) == (
        "out", f"cannot create output directory {tmp_path / 'x'}: Permission denied")


@pytest.mark.parametrize("command,name", [
    (["params", "--config", str(CONFIGS / "sho.json")], "params.csv"),
    (["params", "--config", str(CONFIGS / "sho.json")], "summary.json"),
    (["kernel", "--config", str(CONFIGS / "sho.json"), "--apply", "gaussian(sigma=1)"],
     "kernel.json"),
    (["kernel", "--config", str(CONFIGS / "sho.json"), "--apply", "gaussian(sigma=1)"],
     "psi_out.csv"),
    (["verify", "--seed", "0"], "report.json"),
    (["constants", "--algebra", "lp"], "structure_constants_lp.csv"),
], ids=["params.csv", "summary.json", "kernel.json", "psi_out.csv", "report.json",
        "structure_constants_lp.csv"])
def test_an_output_file_path_held_by_a_directory_is_config_error(tmp_path, capsys,
                                                                monkeypatch, command, name):
    # the --out directory exists, and a directory holds one output file's name
    monkeypatch.setattr(verify, "run_suite", lambda seed, corrupt_map: [
        verify.CheckResult("stand_in", True, 0.0, 0.0)])
    taken = tmp_path / "out" / name
    taken.mkdir(parents=True)
    assert cli.main([*command, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["field"]) == ("ConfigError", "out")
    assert err["message"] == f"cannot write output file {taken}: Is a directory"
    assert taken.is_dir() and list(taken.iterdir()) == []


def per_value_csv(path, header, rows):
    """The CSV writer's definition: each value formatted on its own."""
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


CSV_FLOATS = [0.1, -1.0 / 3.0, 1e22, math.nan, math.inf, -math.inf, -0.0, 5e-324,
              np.float64(2.5e-300), np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf)]


@pytest.mark.parametrize("header, rows", [
    (("a", "b", "c"), [CSV_FLOATS[i:i + 3] for i in range(0, len(CSV_FLOATS), 3)]),
    (("x", "re", "im"), list(zip(np.linspace(-1.0, 1.0, 7), np.sin(np.arange(7.0)),
                                 -np.cos(np.arange(7.0))))),
    (("i", "j", "num"), [(1, 2, -3), (10**20, 0, 7)]),
    (("only",), []),
], ids=["floats", "arrays", "ints", "empty"])
def test_csv_rows_are_the_values_formatted_one_by_one(tmp_path, header, rows):
    cli._write_csv(str(tmp_path / "ours.csv"), header, iter(rows))
    per_value_csv(tmp_path / "theirs.csv", header, rows)
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()


def test_seventeen_digit_serialization(tmp_path):
    cfg = sho_config(tmp_path)
    out = tmp_path / "digits"
    cli.main(["params", "--config", cfg, "--out", str(out)])
    summary = (out / "summary.json").read_text()
    # pi/4 rendered with enough digits to round-trip exactly
    assert "0.78539816339744828" in summary


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
