"""Golden outputs: the sha256 of every file a fixed set of CLI commands
writes, of their stdout, and their exit codes, in ``tests/golden.json``.
The commands run the shipped ``configs/`` and the small configs in
``tests/golden/``.

    python3 tests/golden.py            compare this tree with the manifest
    python3 tests/golden.py --write    rewrite the manifest from this tree

This script is the only writer of the manifest, and it writes only when
given ``--write``.  ``tests/test_golden.py`` runs the comparison inside the
test suite.  Floating-point results depend on Python, numpy, its BLAS and
the CPU (the package imports no other library), so the manifest also records
that fingerprint of the machine it was written on; the test reports an
expected failure, naming both fingerprints, elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden.json"
CONFIGS = ("sho", "iontrap", "kanai", "efield")


def commands() -> dict[str, list[str]]:
    """Name -> argv of every command in the set, without ``--out``."""
    out = {}
    for name in CONFIGS:
        cfg = str(ROOT / "configs" / f"{name}.json")
        for path in ("path1", "path2"):
            for command in ("params", "kernel"):
                out[f"{command}-{name}-{path}"] = [command, "--config", cfg, "--path", path]
    for name in ("sho", "iontrap", "kanai"):
        cfg = str(ROOT / "configs" / f"{name}.json")
        out[f"apply-{name}"] = ["kernel", "--config", cfg, "--apply", "gaussian(sigma=1)"]
    for algebra in ("lp", "gho", "cp"):
        out[f"constants-{algebra}"] = ["constants", "--algebra", algebra]
    for seed in ("0", "7"):
        out[f"verify-{seed}"] = ["verify", "--seed", seed]
    # small configs for the kernel variants the shipped ones do not reach
    small = {name: str(ROOT / "tests" / "golden" / f"{name}.json")
             for name in ("lp", "bsin", "cp2d")}
    out["kernel-lp"] = ["kernel", "--config", small["lp"]]
    out["apply-lp"] = ["kernel", "--config", small["lp"], "--apply", "gaussian(sigma=1)"]
    out["kernel-bsin-path1"] = ["kernel", "--config", small["bsin"]]
    for path in ("path1", "path2"):
        out[f"kernel-cp2d-{path}"] = ["kernel", "--config", small["cp2d"], "--path", path]
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint() -> dict[str, str]:
    """The versions and CPU architecture that floating-point output depends on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def run(workdir: Path) -> dict[str, dict]:
    """Run every command through ``cli.main`` into its own directory under
    ``workdir``; name -> exit code, stdout hash and hash of each file."""
    from liegate import cli

    results = {}
    for name, argv in commands().items():
        out = workdir / name
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([*argv, "--out", str(out)])
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        results[name] = {
            "exit": code,
            "stdout": _sha256(stdout.getvalue().encode()),
            "files": {p.relative_to(out).as_posix(): _sha256(p.read_bytes()) for p in files},
        }
    return results


def moved(expected: dict[str, dict], actual: dict[str, dict]) -> list[str]:
    """One line per exit code, stdout or file that differs, is missing or is new."""
    lines = []
    for name in sorted(set(expected) | set(actual)):
        old, new = expected.get(name), actual.get(name)
        if old is None or new is None:
            lines.append(f"{name}: command {'added' if old is None else 'missing'}")
            continue
        if old["exit"] != new["exit"]:
            lines.append(f"{name}: exit code {old['exit']} -> {new['exit']}")
        if old["stdout"] != new["stdout"]:
            lines.append(f"{name}: stdout moved")
        for file in sorted(set(old["files"]) | set(new["files"])):
            if old["files"].get(file) != new["files"].get(file):
                what = ("moved" if file in old["files"] and file in new["files"]
                        else "missing" if file in old["files"] else "added")
                lines.append(f"{name}/{file} {what}")
    return lines


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite tests/golden.json from this tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        actual = run(Path(tmp))
    if args.write:
        manifest = {"fingerprint": fingerprint(), "commands": actual}
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"wrote {MANIFEST.relative_to(ROOT)}: {len(actual)} commands")
        return 0
    manifest = load()
    if manifest["fingerprint"] != fingerprint():
        print(f"manifest written on {manifest['fingerprint']}, this is {fingerprint()}")
    lines = moved(manifest["commands"], actual)
    print("\n".join(lines) if lines else f"all {len(actual)} commands match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
