"""Golden outputs: the sha256 of every file a fixed set of CLI commands
writes, of their stdout, and their exit codes, in ``tests/golden.json``.
The commands run the shipped ``configs/`` and the small configs in
``tests/golden/``.

    python3 tests/golden.py               compare this tree with the manifest
    python3 tests/golden.py --write       rewrite the manifest from this tree
    python3 tests/golden.py --against DIR compare this tree with the tree at DIR
    python3 tests/golden.py --reach       list the package functions no command calls

``--against`` runs the commands twice: with this tree's package, and with
``DIR/src`` in a child process.  For each file that moved it prints the
largest absolute and the largest relative numeric change, where it occurs
(the row and column of a CSV file, the key path of a JSON one) and the
value in DIR's file and in this tree's.

``--reach`` runs the commands under ``sys.setprofile`` and prints each
function and method written in a package module that none of them calls:
code that only the tests reach, or nothing does.  The calls of a forked
process (``liegate verify``'s oracle worker) count too.  It then compares
the list with ``UNREACHED``, which gives each entry's reason, and exits 1
on any difference.

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
import math
import os
import platform
import subprocess
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
    # small configs for the kernel variants the shipped ones do not reach, and
    # for each profile kind (a tabulated a's rate enters route 1's u and v)
    small = {name: str(ROOT / "tests" / "golden" / f"{name}.json")
             for name in ("lp", "bsin", "cp2d", "gho-kinds", "cp2d-tabulated")}
    out["kernel-lp"] = ["kernel", "--config", small["lp"]]
    out["apply-lp"] = ["kernel", "--config", small["lp"], "--apply", "gaussian(sigma=1)"]
    out["kernel-bsin-path1"] = ["kernel", "--config", small["bsin"]]
    for path in ("path1", "path2"):
        out[f"kernel-cp2d-{path}"] = ["kernel", "--config", small["cp2d"], "--path", path]
    # route 2 refuses lp and bsin, whose c(0) is 0
    out["params-lp"] = ["params", "--config", small["lp"]]
    out["params-bsin-path1"] = ["params", "--config", small["bsin"]]
    for name in ("cp2d", "gho-kinds"):
        for path in ("path1", "path2"):
            out[f"params-{name}-{path}"] = ["params", "--config", small[name], "--path", path]
    out["params-cp2d-tabulated"] = ["params", "--config", small["cp2d-tabulated"]]
    # one refusal per error exit: a malformed --apply spec and a malformed
    # command line (2), a packet whose 4 sigma^2 overflows (3), and a kernel
    # time past the focal time (4)
    sho = str(ROOT / "configs" / "sho.json")
    out["exit-2"] = ["kernel", "--config", sho, "--apply", "gaussian(width=1)"]
    out["exit-2-seed"] = ["verify", "--seed", "-1"]
    out["exit-3"] = ["kernel", "--config", sho, "--apply", "gaussian(sigma=1e300)"]
    out["exit-4"] = ["kernel", "--config", sho, "--t-end", "2.0"]
    return out


# package function -> why no command calls it; ``--reach`` holds its list to these
UNREACHED = {
    "coeffs.Tabulated.shifted": "only verify's semigroup tails shift a system, none tabulated",
    "coeffs.TimeProfile.derivative": "the solvers read each rate through scalar(); a test API",
    "coeffs.TimeProfile.scalar": "abstract: every profile kind defines its own",
    "coeffs.TimeProfile.shifted": "abstract: every profile kind defines its own",
    "errors.IntegrationError.__init__": "no command's integration fails",
    "greens.GaussianKernel.evaluate": "the kernel's definition term by term, for the tests",
    "greens._planar_sum": "the planar apply has no shipped caller: kernel --apply is 1D only",
    "maps.SymplecticMap.__post_init__": "maps builds its own maps unchecked (maps._map)",
    "maps.SymplecticMap.dof": "library API: no command reads a map's degrees of freedom",
    "maps.evolve_gaussian_moments": "library API: the tests and perfbench move moments",
    "oracle.grid_moments": "an oracle of the tests and perfbench, not of verify",
    "oracle.split_step_evolve": "an oracle of the tests and perfbench, not of verify",
    "paramflow.LinearTranslation.at": "no solve builds a LinearTranslation",
    "quadops.QuadraticObservable.__neg__": "library API: the exact algebra's tests",
    "quadops.QuadraticObservable.__sub__": "library API: the exact algebra's tests",
    "quadops.QuadraticObservable.coordinates": "library API: the exact algebra's tests",
    "quadops.QuadraticObservable.lin": "library API: no command reads a generator's terms",
    "quadops.QuadraticObservable.quad": "library API: no command reads a generator's terms",
    "quadops.QuadraticObservable.scal": "library API: no command reads a generator's terms",
    "quadops.generator": "library API: no command builds a generator by its number",
}


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


def package_functions() -> dict[object, str]:
    """Code object -> "module.qualname" of each function and method written
    in a package module (properties' accessors and cached functions
    included; code a class or a function makes at run time is not)."""
    import importlib
    import inspect
    import pkgutil

    import liegate

    out, seen = {}, set()
    for info in pkgutil.iter_modules(liegate.__path__):
        module = importlib.import_module(f"liegate.{info.name}")
        stack = list(vars(module).values())
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                stack += vars(obj).values()
            elif isinstance(obj, property):
                stack += [obj.fget, obj.fset, obj.fdel]
            elif isinstance(obj, (staticmethod, classmethod)):
                stack.append(obj.__func__)
            elif callable(obj) and hasattr(inspect.unwrap(obj), "__code__"):
                code = inspect.unwrap(obj).__code__
                if code.co_filename == module.__file__:
                    out[code] = f"{info.name}.{obj.__qualname__}"
    return out


def reach(workdir: Path) -> list[str]:
    """The names of the package functions that no command calls, sorted:
    ``run`` into ``workdir`` under a profile hook that records the code of
    every Python call.  The package must not be loaded yet, so that the
    hook also sees the calls its modules make as they load.  A forked
    process keeps the hook, and as it leaves through ``os._exit`` it writes
    the names it called into ``workdir``, where no command's files are."""
    if "liegate" in sys.modules:
        raise RuntimeError("reach needs a process that has not loaded liegate")
    called, leave = set(), os._exit

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    def leaving(status):
        names = (name for code, name in package_functions().items() if code in called)
        (workdir / f"reached-{os.getpid()}").write_text("\n".join(names))
        leave(status)

    sys.setprofile(profile)
    os._exit = leaving
    try:
        run(workdir)
    finally:
        sys.setprofile(None)
        os._exit = leave
    forked = {name for path in workdir.glob("reached-*") for name in path.read_text().split()}
    return sorted(name for code, name in package_functions().items()
                  if code not in called and name not in forked)


def moved(expected: dict[str, dict], actual: dict[str, dict], detail=None) -> list[str]:
    """One line per exit code, stdout or file that differs, is missing or is
    new; ``detail(name, file)``, if given, follows each moved file's line."""
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
                if what == "moved" and detail is not None:
                    what += ": " + detail(name, file)
                lines.append(f"{name}/{file} {what}")
    return lines


def entries(path: Path) -> dict[str, object]:
    """Where -> value of each entry of an output file: "row R, column C" of a
    CSV file (rows counted from 1 below the header), the key path of a JSON
    one."""
    text = path.read_text()
    if path.suffix == ".csv":
        header, *rows = (line.split(",") for line in text.splitlines())
        return {f"row {i}, column {column}": value
                for i, row in enumerate(rows, 1) for column, value in zip(header, row)}
    out = {}

    def walk(obj, where):
        if isinstance(obj, dict):
            for key, value in obj.items():
                walk(value, f"{where}.{key}" if where else key)
        elif isinstance(obj, list):
            for i, value in enumerate(obj):
                walk(value, f"{where}[{i}]")
        else:
            out[where] = obj

    walk(json.loads(text), "")
    return out


def _number(value) -> float | None:
    """A file entry as a float ("nan" and "inf" as written), else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def largest_changes(old: Path, new: Path) -> str:
    """The largest absolute and relative change between two versions of an
    output file, each with where it occurs and the two values; then how many
    entries were added, removed or changed that are not numbers."""
    before, after = entries(old), entries(new)
    worst = {"absolute": (0.0, None), "relative": (0.0, None)}
    other = len(before.keys() ^ after.keys())
    for where in before.keys() & after.keys():
        a, b = _number(before[where]), _number(after[where])
        if a is None or b is None:
            other += before[where] != after[where]
            continue
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        change = abs(b - a) if math.isfinite(abs(b - a)) else math.inf   # NaN on one side: inf
        relative = change / abs(a) if math.isfinite(change) and a else math.inf
        for kind, size in (("absolute", change), ("relative", relative)):
            if worst[kind][1] is None or size > worst[kind][0]:
                worst[kind] = (size, f"{where} ({before[where]} -> {after[where]})")
    parts = [f"largest {kind} change {size:.3g} at {where}"
             for kind, (size, where) in worst.items() if where is not None]
    if other:
        parts.append(f"{other} other entries added, removed or changed")
    return "; ".join(parts) or "no entry changed (layout only)"


_CHILD = ("import json, pathlib, sys; sys.path[:0] = sys.argv[1:3]; import golden; "
          "print(json.dumps(golden.run(pathlib.Path(sys.argv[3]))))")


def against(other: Path) -> int:
    """Run every command with this tree's package and, in a child process,
    with ``other/src``; print each exit code, stdout and file of ``other``
    that moved here, with the largest changes of each moved file."""
    with tempfile.TemporaryDirectory() as tmp:
        here, there = Path(tmp, "here"), Path(tmp, "there")
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, str(other.resolve() / "src"), str(ROOT / "tests"),
             str(there)],
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}, capture_output=True, text=True)
        if child.returncode:
            print(f"the commands failed with {other / 'src'}:\n{child.stderr}")
            return 2
        lines = moved(json.loads(child.stdout), run(here),
                      lambda name, file: largest_changes(there / name / file, here / name / file))
    print("\n".join(lines) if lines else f"all {len(commands())} commands match {other}")
    return 1 if lines else 0


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="rewrite tests/golden.json from this tree")
    mode.add_argument("--against", metavar="DIR", type=Path,
                      help="compare this tree with the tree at DIR, file by file")
    mode.add_argument("--reach", action="store_true",
                      help="list the package functions that no command calls")
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against)
    if args.reach:
        with tempfile.TemporaryDirectory() as tmp:
            unreached = reach(Path(tmp))
        print("\n".join([*unreached, f"{len(unreached)} package functions no command calls"]))
        lines = [f"{name}: now reached, not in UNREACHED" if name in UNREACHED else
                 f"{name}: not reached, and UNREACHED gives no reason"
                 for name in sorted(UNREACHED.keys() ^ set(unreached))]
        print("\n".join(lines) if lines else "as UNREACHED lists")
        return 1 if lines else 0
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
