"""Byte-identical outputs: the CLI's files, stdout and exit codes for a
fixed set of commands against the hashes in ``tests/golden.json``
(written by ``tests/golden.py --write``), and the functions those commands
reach."""

import os
import pathlib
import subprocess
import sys

import pytest

import golden

GOLDEN = pathlib.Path(golden.__file__)


def test_outputs_match_the_golden_manifest(tmp_path):
    manifest = golden.load()
    here = golden.fingerprint()
    if manifest["fingerprint"] != here:
        pytest.xfail(f"golden manifest written on {manifest['fingerprint']}, "
                     f"this machine is {here}")
    lines = golden.moved(manifest["commands"], golden.run(tmp_path))
    assert not lines, "outputs moved:\n" + "\n".join(lines)


def test_manifest_covers_every_command():
    assert set(golden.load()["commands"]) == set(golden.commands())


def test_a_moved_file_names_its_largest_changes(tmp_path):
    # what --against prints for each moved file: the row and column of a CSV
    # entry, the key path of a JSON one, and both values
    (tmp_path / "old.csv").write_text("t,re,im\n0,1.0,2.0\n1,3.0,-4.0\n")
    (tmp_path / "new.csv").write_text("t,re,im\n0,1.5,2.0\n1,3.0,-4.0000001\n")
    assert golden.largest_changes(tmp_path / "old.csv", tmp_path / "new.csv") == (
        "largest absolute change 0.5 at row 1, column re (1.0 -> 1.5); "
        "largest relative change 0.5 at row 1, column re (1.0 -> 1.5)")
    (tmp_path / "old.json").write_text('{"final": {"a": 2.0, "b": "nan"}, "q": [[0.0, 1e-3]]}')
    (tmp_path / "new.json").write_text('{"final": {"a": 2.0, "b": 1.0}, "q": [[0.0, 2e-3]], '
                                       '"note": "x"}')
    assert golden.largest_changes(tmp_path / "old.json", tmp_path / "new.json") == (
        "largest absolute change inf at final.b (nan -> 1.0); "
        "largest relative change inf at final.b (nan -> 1.0); "
        "1 other entries added, removed or changed")


def test_reach_lists_the_functions_no_command_calls():
    # a process of its own, so that the calls the modules make as they load
    # are seen; the list is UNREACHED's, with verify's forked oracle worker
    # counted: the planar apply has no shipped caller, the map read and the
    # worker's flows, made by verify._make_flow, have
    child = subprocess.run([sys.executable, str(GOLDEN), "--reach"], capture_output=True,
                           text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert child.returncode == 0, child.stdout + child.stderr
    *unreached, count, verdict = child.stdout.splitlines()
    assert count == f"{len(unreached)} package functions no command calls"
    assert (unreached, verdict) == (sorted(golden.UNREACHED), "as UNREACHED lists")
    assert "greens._planar_sum" in unreached
    assert {"paramflow.ParamTrajectory._map_parts", "oracle.fundamental_matrix",
            "oracle.classical_flow", "verify._make_flow"}.isdisjoint(unreached)
