"""The benchmark's own tests: its checks can fail, its counters repeat,
and its output and BENCHMARK.json keep to one contract.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads
from liegate import greens

ROOT = run.ROOT
COUNTERS = [name for name, unit, _ in spans.PER_LAYER if unit in ("count", "bytes")]


def _run_items(wl, seed, indices):
    tally = workloads.Tally()
    state = wl.setup(seed)
    try:
        for i in indices:
            tally.run(wl, state, i)
    finally:
        wl.close(state)
    return tally


def test_corrupt_map_session_counts_as_failed(tmp_path):
    wl = workloads.CliSession(ROOT, str(tmp_path))
    tally = workloads.Tally()
    state = wl.setup(0)
    try:
        tally.run(wl, state, 0)
        assert (tally.attempted, tally.failed) == (1, 0), tally.messages
        state["verify"] = state["verify"] + ["--corrupt-map"]
        tally.run(wl, state, 1)
    finally:
        wl.close(state)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "exit code 1" in tally.messages[0]


@pytest.mark.parametrize("coefficient", ["qxx", "qx1x1", "qxx1", "lx", "lx1"])
def test_perturbed_kernel_counts_as_failed(monkeypatch, coefficient):
    build = greens.kernel_build

    def perturbed(traj, t, variant):
        kernel = build(traj, t, variant)
        value = getattr(kernel, coefficient).copy()
        value.flat[0] += 1e-3
        return dataclasses.replace(kernel, **{coefficient: value})

    monkeypatch.setattr(greens, "kernel_build", perturbed)
    tally = _run_items(workloads.KernelPropagate(), 0, [1])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_broken_symplectic_map_counts_as_failed(monkeypatch):
    from liegate import maps
    check = maps.check_symplectic
    monkeypatch.setattr(maps, "check_symplectic", lambda m: tuple(r + 1e-3 for r in check(m)))
    tally = _run_items(workloads.ParamSweep(), 0, [1, 2])
    assert tally.failed == 2


def test_clock_scales_each_stretch_by_the_slowness_around_it():
    class Host:                        # twice as slow, then four times after the pause
        def __init__(self):
            self.readings = iter([2.0, 2.0, 8.0, 8.0])

        def slowness(self, dense_share):
            return next(self.readings)

    clock = workloads.Clock(Host(), every=0.0)
    clock.start()
    time.sleep(0.01)
    clock.pause()
    time.sleep(0.01)
    wall = clock.stop()
    (first, second) = [end - start for _, start, end in clock.stretches]
    [(wall_s, scaled_s)] = clock.times()
    assert wall_s == pytest.approx(wall) == pytest.approx(first + second)
    assert scaled_s == pytest.approx(first / 2.0 + second / 4.0)


def test_session_pauses_between_verify_checks_and_restores_them(tmp_path):
    from liegate import verify
    checks = {name: getattr(verify, name) for name in spans.VERIFY_CHECKS}
    wl = workloads.CliSession(ROOT, str(tmp_path))
    state = wl.setup(0)
    pauses = []
    try:
        codes = wl.item(state, wl.make_input(state, 0), lambda: pauses.append(1))
    finally:
        wl.close(state)
    assert set(codes) == {0}
    # one pause before each command but the first, one before each check
    assert len(pauses) == len(wl.make_input(state, 0)) - 1 + len(checks)
    assert checks == {name: getattr(verify, name) for name in spans.VERIFY_CHECKS}


@pytest.mark.parametrize("name,items", [("param-sweep", 6), ("kernel-propagate", 2),
                                        ("cli-session", 1)])
def test_counters_repeat_and_other_seed_passes(tmp_path, name, items):
    def traced(seed):
        wl = workloads.make(name, ROOT, str(tmp_path))
        wl.trace_items = items
        return workloads.trace(wl, seed)

    first, second, other = traced(3), traced(3), traced(4)
    counts = [{key: r["metrics"][key] for key in COUNTERS} for r in (first, second)]
    assert counts[0] == counts[1]
    for res in (first, second, other):
        assert res["tally"].failed == 0, res["tally"].messages
        assert res["metrics"]["trace.span_coverage"] >= 0.95
    assert {key for key, _, _ in spans.PER_LAYER} == set(first["metrics"])


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    classes = [workloads.ParamSweep, workloads.KernelPropagate, workloads.CliSession]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(cls.name, cls.why) for cls in classes]
    assert [cls.name for cls in classes] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in spans.PER_LAYER]


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


def test_result_line_keeps_to_the_contract():
    proc = _bench(ROOT, "--workload", "param-sweep", "--seed", "5", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] \
        == [(m[0], m[1]) for m in run.END_TO_END]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "param-sweep", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
