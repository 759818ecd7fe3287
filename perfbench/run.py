"""liegate benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload param-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 0            # every workload, one table

One workload runs in this process.  Without ``--workload`` every workload
runs in turn, each in a child process of its own so that ``peak_rss_mib``
is that workload's alone.  The last line of a single-workload run is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

# Set before numpy loads: one kernel-apply thread and one BLAS thread
# (at most nproc), so every run measures the same single-threaded work.
THREAD_ENV = {"LIEGATE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("param-sweep", "kernel-propagate", "cli-session")

# (name, unit, better, bound) of every end-to-end metric.  fail_ratio is
# reported beside them but is not a bounded metric: it is 0 when the
# program is correct, and a run with failures is rejected through
# ``correct`` and ``failed`` instead.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
    }


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "liegate", "__init__.py")) or \
            not os.path.isdir(os.path.join(ROOT, "configs")):
        print(f"no liegate source under {ROOT}: expected src/liegate and configs/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    wl = workloads.make(args.workload, ROOT, WORK)
    print("machine: " + json.dumps(machine()))
    if args.trace:
        os.makedirs(WORK, exist_ok=True)
        span_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
        res = workloads.trace(wl, args.seed, span_path)
        import spans
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        print(f"workload {args.workload} seed {args.seed}: traced {res['items']} items; "
              f"spans in {os.path.relpath(span_path, ROOT)}")
    else:
        res = workloads.measure(wl, args.seed, args.seconds)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        print(f"workload {args.workload} seed {args.seed}: {res['items']} items in "
              f"{res['busy_s']:.2f} s, closed loop, one caller; host slowness "
              f"{res['slowness']:.3f} (median), times below scaled by it")
        print("  wall times: " + "  ".join(f"{k}={v:.6g}" for k, v in res["wall"].items()))
        print("  set-up medians, wall/scaled: " + "  ".join(
            f"{name} {w:.3f}/{s:.3f} s" for name, (w, s) in res["setup"].items()))
    tally = res["tally"]
    for name, value in res["metrics"].items():
        extra = ""
        if name == "item_tail_ms":
            extra = f"  (p{res['tail_pct']:.1f}, {res['tail_beyond']} of {res['items']} beyond)"
        print(f"  {name:34s} {value:14.6g} {units[name]}{extra}")
    print(f"  {'fail_ratio':34s} {tally.failed / tally.attempted:14.6g} "
          f"({tally.failed} of {tally.attempted} items)")
    for message in tally.messages:
        print(f"  FAILED {message}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in res["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, then one summary table."""
    rows = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not rows[name]["correct"]
    print("\nsummary")
    for name, row in rows.items():
        ratio = row["failed"] / row["attempted"]
        cells = [f"{m}={v['value']:.6g} {v['unit']}" for m, v in row["metrics"].items()]
        print(f"  {name:17s} " + "  ".join(cells) + f"  fail_ratio={ratio:.6g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, one child process each)")
    parser.add_argument("--seed", type=int, default=0, help="seed the inputs are made from")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="item time measured with tracing off")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with a fixed item count, per-layer metrics")
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
