"""Configuration-driven command line entry point.

Subcommands:

* ``liegate params``    solve transformation parameters, write params.csv
  and summary.json;
* ``liegate kernel``    build the propagator kernel at t_end, write
  kernel.json, optionally apply it to a Gaussian packet (psi_out.csv);
* ``liegate verify``    run the built-in invariant suite, write report.json;
* ``liegate constants`` export an algebra's structure constants as CSV.

Exit codes: 0 success, 1 verification failure, 2 malformed configuration,
3 domain error, 4 focal-point (caustic) violation, 5 internal error (a bug:
any other exception).  All failures print a machine-readable error object
to stdout.  Numeric output carries 17 significant digits, so doubles
round-trip exactly; an identical configuration (and ``verify`` seed)
produces byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

from .errors import CausticError, ConfigError, DomainError, LiegateError

_TOP_KEYS = {
    "system", "path", "hbar", "t_end", "tol", "samples",
    "params", "coefficients", "field", "grid", "kernel_t",
}
# values a configuration may leave out; load_config fills them in
_DEFAULTS = {"path": "path1", "tol": 1e-10, "hbar": 1.0, "samples": 201}
_GRID_DEFAULTS = {"n": 1024, "x_min": -12.0, "dx": 24.0 / 1024}
# Far above every shipped and tested value (201 samples, n = 1024), and
# low enough that memory runs out of neither: params.csv holds one row per
# sample, and --apply holds a few complex arrays of about 2n points.
_MAX_SAMPLES = 10**6
_MAX_GRID_N = 2**22


def _json_dumps(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits, keys sorted; a complex
    number is the pair [re, im], and a numpy array or scalar is written as
    its ``tolist()``."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}"{k}": {_json_dumps(obj[k], indent + 1)}'
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, complex):
        return _json_dumps([obj.real, obj.imag], indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        x = float(obj)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return f"{x:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if hasattr(obj, "tolist"):   # numpy's, without importing it
        return _json_dumps(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_csv(path: str, header, rows):
    """CSV with floats at 17 significant digits and integers exactly."""
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _is_int_in(value, lo: int, hi: int) -> bool:
    return not isinstance(value, bool) and isinstance(value, int) and lo <= value <= hi


def load_config(path: str, overrides: dict) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}", field="config")
    except ValueError as err:  # JSONDecodeError, or an int too long to convert
        raise ConfigError(f"config is not valid JSON: {err}", field="config")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object", field="config")
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    validate_config(cfg)
    for key, value in _DEFAULTS.items():
        cfg.setdefault(key, value)
    cfg["grid"] = {**_GRID_DEFAULTS, **cfg.get("grid", {})}
    return cfg


def validate_config(cfg: dict):
    from . import presets

    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown configuration key {key!r}", field=key)
    system = cfg.get("system")
    if not (isinstance(system, str) and system in presets.PRESETS):
        raise ConfigError(
            f"field 'system' must be one of {', '.join(presets.PRESETS)}; got {system!r}",
            field="system",
        )
    if "path" in cfg and cfg["path"] not in ("path1", "path2"):
        raise ConfigError(f"field 'path' must be 'path1' or 'path2', got {cfg['path']!r}",
                          field="path")
    if "t_end" not in cfg:
        raise ConfigError("missing required field 't_end'", field="t_end")
    for key in ("t_end", "tol", "hbar", "kernel_t"):
        if key in cfg:
            presets.check_number(cfg[key], key, positive=True)
    if cfg.get("kernel_t", 0) > cfg["t_end"]:
        raise ConfigError(f"field 'kernel_t' must not exceed t_end={cfg['t_end']}, "
                          f"got {cfg['kernel_t']}", field="kernel_t")
    if "samples" in cfg and not _is_int_in(cfg["samples"], 2, _MAX_SAMPLES):
        raise ConfigError(f"field 'samples' must be an integer in [2, {_MAX_SAMPLES}]",
                          field="samples")
    if "grid" in cfg:
        grid = cfg["grid"]
        if not isinstance(grid, dict):
            raise ConfigError("field 'grid' must be an object", field="grid")
        unknown = set(grid) - set(_GRID_DEFAULTS)
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"unknown grid key {key!r}", field=f"grid.{key}")
        if "n" in grid and not _is_int_in(grid["n"], 8, _MAX_GRID_N):
            raise ConfigError(f"field 'grid.n' must be an integer in [8, {_MAX_GRID_N}]",
                              field="grid.n")
        for key, positive in (("x_min", False), ("dx", True)):
            if key in grid:
                presets.check_number(grid[key], f"grid.{key}", positive)


def build_problem(cfg: dict):
    """Return ('1d', CoefficientSet1D) or ('2d', FieldProfile2D)."""
    from . import presets
    from .coeffs import CoefficientSet1D

    system = cfg["system"]
    spec = cfg.get(presets.PRESETS[system].section)
    problem = presets.build(system, spec, float(cfg["hbar"]))
    return ("1d" if isinstance(problem, CoefficientSet1D) else "2d"), problem


def _solve(cfg: dict, kind: str, problem):
    from . import paramflow

    t_end = float(cfg["t_end"])
    tol = float(cfg["tol"])
    path = cfg["path"]
    if kind == "1d":
        solver = paramflow.solve_path1 if path == "path1" else paramflow.solve_path2
        return solver(problem, t_end, tol)
    return paramflow.solve_2d(problem, t_end, tol, path=path)


def _summary(cfg: dict, kind: str, traj) -> dict:
    t_end = float(cfg["t_end"])
    out = {
        "system": cfg["system"],
        "path": cfg["path"],
        "t_end": t_end,
        "tol": float(cfg["tol"]),
        "valid_to": traj.valid_to if math.isfinite(traj.valid_to) else None,
    }
    if kind == "1d":
        s = traj.sample(t_end)
        out["Delta"] = traj.Delta
        out["shortcut"] = traj.shortcut
        out["final"] = {
            "S": s.S, "lam": s.lam, "Pi": s.Pi, "gamma": s.gamma,
            "alpha": s.alpha, "phi": s.phi, "vphi": s.vphi, "beta": s.beta,
            "u": s.u, "udot": s.udot,
        }
    else:
        rec = traj.sample(t_end)
        out["Delta"] = traj.radial.Delta
        out["final"] = {
            "S": rec["S"], "theta": rec["theta"],
            "lam_x": rec["lam_x"], "lam_y": rec["lam_y"],
            "Pi_x": rec["Pi_x"], "Pi_y": rec["Pi_y"],
        }
    return out


def _params_table(kind: str, traj, samples: int):
    """params.csv columns and rows: the ParamSample fields at uniform times,
    route 1 with its companion solution (v, vdot).  A planar row reads t, S,
    theta and the per-axis translations from the planar sample, the rest
    from its radial sample."""
    import numpy as np

    from . import paramflow

    sample = paramflow.ParamSample
    names = [n for n in sample._fields if n not in sample._field_defaults]
    if kind == "1d":
        header = names + (["v", "vdot"] if traj.path == "path1" else [])
    else:
        header = [n for n in names if n not in ("lam", "Pi")]
        header += ["theta", "lam_x", "lam_y", "Pi_x", "Pi_y"]
    points = (traj.sample(float(t)) for t in np.linspace(0.0, traj.t_end, samples))
    records = (s._asdict() if kind == "1d" else {**s["radial"]._asdict(), **s} for s in points)
    return header, ([rec[n] for n in header] for rec in records)


def cmd_params(cfg: dict, out_dir: str) -> int:
    kind, problem = build_problem(cfg)
    traj = _solve(cfg, kind, problem)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "params.csv"),
               *_params_table(kind, traj, cfg["samples"]))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        fh.write(_json_dumps(_summary(cfg, kind, traj)) + "\n")
    return 0


_APPLY_RE = re.compile(r"^gaussian\((.*)\)$")


def parse_apply_spec(spec: str) -> dict:
    match = _APPLY_RE.match(spec.strip())
    if not match:
        raise ConfigError(
            f"--apply spec must look like gaussian(sigma=1,x0=0,p0=0); got {spec!r}",
            field="apply",
        )
    out = {"sigma": 1.0, "x0": 0.0, "p0": 0.0}
    body = match.group(1).strip()
    if body:
        for part in body.split(","):
            if "=" not in part:
                raise ConfigError(f"malformed --apply entry {part!r}", field="apply")
            key, value = (s.strip() for s in part.split("=", 1))
            if key not in out:
                raise ConfigError(f"unknown --apply parameter {key!r}", field="apply")
            try:
                out[key] = float(value)
            except ValueError:
                raise ConfigError(f"--apply parameter {key!r} must be a number",
                                  field="apply") from None
            if not math.isfinite(out[key]):
                raise ConfigError(f"--apply parameter {key!r} must be a finite number",
                                  field="apply")
    if out["sigma"] <= 0:
        raise ConfigError("--apply sigma must be positive", field="apply")
    return out


def cmd_kernel(cfg: dict, out_dir: str, apply_spec: str | None) -> int:
    from . import greens, oracle, presets

    kind, problem = build_problem(cfg)
    if apply_spec is not None:
        gauss = parse_apply_spec(apply_spec)
        if kind != "1d":
            raise DomainError("--apply operates on 1D systems")
    traj = _solve(cfg, kind, problem)
    t_kernel = float(cfg.get("kernel_t", cfg["t_end"]))
    if kind == "1d":
        variant = presets.PRESETS[cfg["system"]].kernel or cfg["path"]
    else:
        variant = "twod_" + cfg["path"]
    kernel = greens.kernel_build(traj, t_kernel, variant)
    os.makedirs(out_dir, exist_ok=True)
    payload = {f.name: getattr(kernel, f.name) for f in dataclasses.fields(kernel)}
    payload.update(system=cfg["system"], variant=variant,
                   valid_to=kernel.valid_to if math.isfinite(kernel.valid_to) else None)
    with open(os.path.join(out_dir, "kernel.json"), "w") as fh:
        fh.write(_json_dumps(payload) + "\n")
    if apply_spec is not None:
        grid = cfg["grid"]
        psi0 = oracle.gaussian_state(
            grid["n"], float(grid["x_min"]), float(grid["dx"]),
            sigma=gauss["sigma"], x0=gauss["x0"], p0=gauss["p0"], hbar=float(cfg["hbar"]),
        )
        psi_out = greens.kernel_apply(kernel, psi0)
        _write_csv(os.path.join(out_dir, "psi_out.csv"), ("x", "re", "im"),
                   zip(psi_out.x, psi_out.amps.real, psi_out.amps.imag))
    return 0


def cmd_verify(out_dir: str, seed: int, corrupt_map: bool) -> int:
    from . import verify  # with it the oracle and the closed forms

    results = verify.run_suite(seed=seed, corrupt_map=corrupt_map)
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "n_checks": sum(r.count for r in results),
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "measured": r.measured,
                "threshold": r.threshold,
                "count": r.count,
                "note": r.note,
            }
            for r in results
        ],
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(_json_dumps(report) + "\n")
    return 0 if report["all_passed"] else 1


def cmd_constants(algebra: str, out_dir: str) -> int:
    from . import quadops

    table = quadops.structure_constants(algebra)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, f"structure_constants_{algebra.lower()}.csv"),
               ("i", "j", "k", "num", "den"),
               ((i, j, k, c.numerator, c.denominator) for i, j, k, c in table.entries))
    return 0


def _error_json(code: int, err: Exception) -> str:
    payload = {
        "error": {
            "exit_code": code,
            "type": type(err).__name__,
            "message": str(err),
        }
    }
    if isinstance(err, ConfigError) and err.field:
        payload["error"]["field"] = err.field
    if isinstance(err, CausticError) and err.valid_to is not None:
        payload["error"]["valid_to"] = err.valid_to
    return _json_dumps(payload)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError, so it ends in the
    JSON error object like any other bad input; the field is the first
    --option the message names."""

    def error(self, message):
        flag = re.search(r"--([\w-]+)", message)
        raise ConfigError(message, field=flag and flag.group(1).replace("-", "_"))


def non_negative_int(text: str) -> int:
    """An integer >= 0, as the suite's random generator takes for a seed."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liegate",
        description="Exact time-evolution data for time-dependent quadratic "
                    "Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_apply=False):
        p.add_argument("--system", help="system preset")
        p.add_argument("--path", help="factorization route: path1 or path2")
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--t-end", type=float, dest="t_end", help="solve horizon")
        p.add_argument("--tol", type=float, help="integration tolerance")
        p.add_argument("--out", default=".", help="output directory")
        if with_apply:
            p.add_argument("--apply", help="apply kernel to gaussian(sigma=..,x0=..,p0=..)")

    common(sub.add_parser("params", help="solve transformation parameters"))
    common(sub.add_parser("kernel", help="build the propagator kernel"),
           with_apply=True)

    pv = sub.add_parser("verify", help="run the invariant verification suite")
    pv.add_argument("--out", default=".", help="output directory")
    pv.add_argument("--seed", type=non_negative_int, default=0, help="suite seed")
    pv.add_argument("--corrupt-map", action="store_true", help=argparse.SUPPRESS)

    pc = sub.add_parser("constants", help="export structure constants as CSV")
    pc.add_argument("--algebra", required=True, type=str.lower,
                    choices=("lp", "gho", "cp"))
    pc.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args.out, args.seed, args.corrupt_map)
        if args.command == "constants":
            return cmd_constants(args.algebra.upper(), args.out)
        overrides = {
            "system": args.system,
            "path": args.path,
            "t_end": args.t_end,
            "tol": args.tol,
        }
        cfg = load_config(args.config, overrides)
        if args.command == "params":
            return cmd_params(cfg, args.out)
        return cmd_kernel(cfg, args.out, args.apply)
    except ConfigError as err:
        print(_error_json(2, err))
        return 2
    except CausticError as err:
        print(_error_json(4, err))
        return 4
    except LiegateError as err:
        print(_error_json(3, err))
        return 3
    except Exception as err:  # a bug, still reported as a JSON error object
        print(_error_json(5, err))
        return 5


if __name__ == "__main__":
    sys.exit(main())
