"""Each command loads only what it runs, in a fresh interpreter of its own.

scipy is most of a process's start-up and no command runs it: the solvers
and ``verify``'s oracle integrate with the package's own DOP853 and RK45,
and tabulated profiles are the package's own natural spline.  So no
command, a tabulated one included, may load scipy, and ``constants``,
which needs only the exact algebra, loads no numpy either.  The test
asserts module sets, never wall time.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# call cli.main, then print which modules the interpreter holds
CHILD = ("import json, sys\n"
         "from liegate import cli\n"
         "code = cli.main(sys.argv[1:])\n"
         "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n")


def modules_of(package: str, modules) -> set[str]:
    return {m for m in modules if m.split(".")[0] == package}


def test_each_command_loads_only_what_it_runs(tmp_path):
    tabulated = tmp_path / "tabulated.json"
    tabulated.write_text(json.dumps({
        "system": "gho", "t_end": 1.0,
        "coefficients": {"a": {"kind": "tabulated", "knots": [[0, 1], [0.5, 1.2], [1, 1]]},
                         "c": 1.0},
    }))
    commands = {
        "params": (["params", "--config", str(CONFIGS / "sho.json")], 0),
        "kernel": (["kernel", "--config", str(CONFIGS / "iontrap.json"),
                    "--apply", "gaussian(sigma=1)"], 0),
        "constants": (["constants", "--algebra", "cp"], 0),
        "config-error": (["params", "--config", str(CONFIGS / "sho.json"),
                          "--t-end", "nan"], 2),
        "tabulated": (["params", "--config", str(tabulated)], 0),
        "verify": (["verify", "--seed", "0"], 0),
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # one process each, all at once: verify's suite takes most of the time
    children = {
        name: subprocess.Popen([sys.executable, "-c", CHILD, *argv,
                                "--out", str(tmp_path / name)],
                               env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True)
        for name, (argv, _) in commands.items()
    }
    loaded = {}
    for name, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        report = json.loads(out.splitlines()[-1])
        assert report["code"] == commands[name][1], out
        loaded[name] = set(report["modules"])

    for name in commands:
        assert modules_of("scipy", loaded[name]) == set(), name
    assert modules_of("numpy", loaded["constants"]) == set()
    assert "liegate.coeffs" in loaded["tabulated"]
    # the kernel, the oracle's grids and verify's checks only where they run
    assert {"liegate.greens", "liegate.verify"} & loaded["params"] == set()
    assert "liegate.verify" not in loaded["kernel"]
    # the kernels read the map's parts from the trajectory, so neither
    # command needs the assemblers
    assert [name for name in ("params", "kernel") if "liegate.maps" in loaded[name]] == []


def test_the_exact_algebra_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "import liegate.quadops\n"
         "print(json.dumps(sorted(sys.modules)))\n"],
        env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    loaded = json.loads(child.stdout)
    assert "liegate.quadops" in loaded
    assert modules_of("numpy", loaded) == set()
