"""Byte-identical outputs: the CLI's files, stdout and exit codes for a
fixed set of commands against the hashes in ``tests/golden.json``
(written by ``tests/golden.py --write``)."""

import pytest

import golden


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
