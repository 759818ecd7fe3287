"""In-memory span recorder and the per-layer metrics derived from it.

Only the traced run uses this module.  ``instrument`` wraps the public
functions of each ``liegate`` module, a few public methods, and the
``__call__``/``derivative`` of every ``TimeProfile`` subclass, by
replacing module and class attributes at run time; ``close`` puts the
originals back.  No package file is touched.

A span is ``[name, start, end, parent, item, leaf_s, note, index]``.  Profile
evaluations are far too frequent to keep one span each, so they are counted
and their time is added to ``leaf_s`` of the innermost open span (the
"leaf" time of that span).  A span's self time is its duration minus its
direct children and its leaf time.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time

LAYERS = ("coeffs", "paramflow", "maps", "greens", "oracle", "closedforms",
          "quadops", "verify", "cli")

# Public methods wrapped in addition to each module's functions.
_METHODS = {
    "paramflow": ("ParamTrajectory.sample", "ParamTrajectory2D.sample",
                  "LinearTranslation.at"),
    "oracle": ("FlowResult.at",),
}
_EXTRA_FUNCTIONS = {
    # verify and cli have no __all__ entries for what the workloads call
    "verify": ("run_suite", "check_structure_constants", "check_algebra_properties",
               "check_symplectic", "check_path_equivalence", "check_oracle_maps",
               "check_classical_identification", "check_closed_forms",
               "check_mathieu", "check_kernels"),
    "cli": ("main", "cmd_params", "cmd_kernel", "cmd_verify", "cmd_constants",
            "load_config", "build_problem"),
}
VERIFY_CHECKS = _EXTRA_FUNCTIONS["verify"][1:]
_SOLVES = ("paramflow.solve_path1", "paramflow.solve_path2", "paramflow.solve_2d",
           "paramflow.solve_linear_translation")
_SAMPLES = ("paramflow.ParamTrajectory.sample", "paramflow.ParamTrajectory2D.sample")
_ASSEMBLES = ("maps.assemble_path1", "maps.assemble_path2", "maps.assemble_2d")
_GREENS_IO = ("greens.wavegrid_to_csv", "greens.wavegrid_from_csv",
              "greens.wavegrid_to_binary", "greens.wavegrid_from_binary")
_CLI_COMMANDS = ("verify", "params", "kernel", "constants")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("coeffs.profile_calls", "count", "lower"), ("coeffs.self_s", "s", "lower"),
     ("paramflow.solve_s", "s", "lower"), ("paramflow.solves", "count", "lower"),
     ("paramflow.steps", "count", "lower"), ("paramflow.sample_calls", "count", "lower"),
     ("paramflow.sample_s", "s", "lower"), ("paramflow.self_s", "s", "lower"),
     ("maps.assemble_calls", "count", "lower"), ("maps.assemble_s", "s", "lower"),
     ("maps.check_s", "s", "lower"), ("maps.self_s", "s", "lower"),
     ("greens.build_s", "s", "lower"), ("greens.apply_1d_ms", "ms", "lower"),
     ("greens.apply_2d_ms", "ms", "lower"), ("greens.kernel_entries", "count", "lower"),
     ("greens.io_s", "s", "lower"), ("greens.self_s", "s", "lower"),
     ("oracle.fundamental_matrix_s", "s", "lower"), ("oracle.classical_flow_s", "s", "lower"),
     ("oracle.split_step_s", "s", "lower"), ("oracle.split_step_steps", "count", "lower"),
     ("oracle.self_s", "s", "lower"),
     ("closedforms.s", "s", "lower"), ("closedforms.mathieu_calls", "count", "lower"),
     ("closedforms.self_s", "s", "lower"),
     ("quadops.structure_constants_s", "s", "lower"),
     ("quadops.commutator_calls", "count", "lower"), ("quadops.self_s", "s", "lower")]
    + [(f"verify.{name}_s", "s", "lower") for name in VERIFY_CHECKS]
    + [("verify.self_s", "s", "lower")]
    + [(f"cli.{cmd}_ms", "ms", "lower") for cmd in _CLI_COMMANDS]
    + [("cli.bytes_written", "bytes", "lower"), ("cli.self_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower"), ("trace.span_coverage", "ratio", "higher")]
)


def _note_for(name: str):
    """Work counter a span carries, read from the call's arguments or result."""
    if name in _SOLVES:
        return lambda arg, out: len(out.t_grid) - 1
    if name == "greens.kernel_apply":
        return lambda arg, out: (arg["psi0"].dof, arg["psi0"].n ** (2 * arg["psi0"].dof))
    if name == "oracle.split_step_evolve":
        return lambda arg, out: arg["n_steps"]
    if name == "cli.main":
        return lambda arg, out: arg["argv"][0]
    return None


class Recorder:
    """Spans of one traced pass, kept in memory until ``write``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.item = None
        self.items: dict[int, tuple[float, float]] = {}
        self.profile_calls = 0
        self.profile_depth = 0
        self.orphan_leaf_s = 0.0
        self.counters = {"cli.bytes_written": 0}
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------
    def _span(self, name, fn, note):
        stack, spans = self.stack, self.spans
        signature = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1][7] if stack else None, self.item, 0.0,
                   None, len(spans)]
            spans.append(rec)
            stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[6] = note(signature.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def _profile(self, fn, counted: bool):
        @functools.wraps(fn)
        def wrapper(prof, t):
            if counted:
                self.profile_calls += 1
            if self.profile_depth:
                return fn(prof, t)
            self.profile_depth = 1
            start = time.perf_counter()
            try:
                return fn(prof, t)
            finally:
                elapsed = time.perf_counter() - start
                self.profile_depth = 0
                if self.stack:
                    self.stack[-1][5] += elapsed
                else:
                    self.orphan_leaf_s += elapsed

        return wrapper

    def begin_item(self, i: int):
        self.item = i
        self._item_start = time.perf_counter()

    def end_item(self):
        self.items[self.item] = (self._item_start, time.perf_counter())
        self.item = None

    # ---- instrumentation ---------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def instrument(self, package):
        """Wrap every layer's public calls; aliases in other modules too."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            names = list(getattr(mod, "__all__", ())) + list(_EXTRA_FUNCTIONS.get(layer, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self._span(name, fn, _note_for(name))
            for path in _METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._span(f"{layer}.{path}", getattr(cls, meth), None))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        coeffs = modules["coeffs"]
        for cls in _profile_classes(coeffs.TimeProfile):
            if "__call__" in vars(cls):
                self._patch(cls, "__call__", self._profile(vars(cls)["__call__"], True))
            if "derivative" in vars(cls):
                self._patch(cls, "derivative", self._profile(vars(cls)["derivative"], False))

    def close(self):
        """Restore every attribute replaced by ``instrument``."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---- reporting ---------------------------------------------------------
    def write(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, item, leaf, note, idx in self.spans:
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item, "leaf_s": leaf,
                                     "note": note}) + "\n")

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[3] is not None:
                child[s[3]] += d

        def outermost(names):
            """Total duration of spans named in ``names`` with no such ancestor."""
            names = set(names)
            total = 0.0
            for s, d in zip(spans, dur):
                parent = s[3]
                while parent is not None and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if s[0] in names and parent is None:
                    total += d
            return total

        def count(names):
            names = set(names)
            return sum(1 for s in spans if s[0] in names)

        def median_ms(name, keep=lambda note: True):
            values = [d for s, d in zip(spans, dur) if s[0] == name and keep(s[6])]
            return 1e3 * statistics.median(values) if values else 0.0

        self_s = dict.fromkeys(LAYERS, 0.0)
        for s, d, c in zip(spans, dur, child):
            self_s[s[0].split(".")[0]] += d - c - s[5]
        self_s["coeffs"] += sum(s[5] for s in spans) + self.orphan_leaf_s

        out = {
            "coeffs.profile_calls": self.profile_calls,
            "coeffs.self_s": self_s["coeffs"],
            "paramflow.solve_s": outermost(_SOLVES),
            "paramflow.solves": count(_SOLVES),
            "paramflow.steps": sum(s[6] for s in spans if s[0] in _SOLVES),
            "paramflow.sample_calls": count(_SAMPLES),
            "paramflow.sample_s": outermost(_SAMPLES),
            "paramflow.self_s": self_s["paramflow"],
            "maps.assemble_calls": count(_ASSEMBLES),
            "maps.assemble_s": outermost(_ASSEMBLES),
            "maps.check_s": outermost(["maps.check_symplectic"]),
            "maps.self_s": self_s["maps"],
            "greens.build_s": outermost(["greens.kernel_build"]),
            "greens.apply_1d_ms": median_ms("greens.kernel_apply", lambda n: n[0] == 1),
            "greens.apply_2d_ms": median_ms("greens.kernel_apply", lambda n: n[0] == 2),
            "greens.kernel_entries": sum(s[6][1] for s in spans
                                         if s[0] == "greens.kernel_apply"),
            "greens.io_s": outermost(_GREENS_IO),
            "greens.self_s": self_s["greens"],
            "oracle.fundamental_matrix_s": outermost(["oracle.fundamental_matrix"]),
            "oracle.classical_flow_s": outermost(["oracle.classical_flow"]),
            "oracle.split_step_s": outermost(["oracle.split_step_evolve"]),
            "oracle.split_step_steps": sum(s[6] for s in spans
                                           if s[0] == "oracle.split_step_evolve"),
            "oracle.self_s": self_s["oracle"],
            "closedforms.s": outermost([s[0] for s in spans
                                        if s[0].startswith("closedforms.")]),
            "closedforms.mathieu_calls": count(["closedforms.mathieu_c"]),
            "closedforms.self_s": self_s["closedforms"],
            "quadops.structure_constants_s": outermost(["quadops.structure_constants"]),
            "quadops.commutator_calls": count(["quadops.commutator"]),
            "quadops.self_s": self_s["quadops"],
        }
        for name in VERIFY_CHECKS:
            out[f"verify.{name}_s"] = outermost([f"verify.{name}"])
        out["verify.self_s"] = self_s["verify"]
        for cmd in _CLI_COMMANDS:
            out[f"cli.{cmd}_ms"] = median_ms("cli.main", lambda n, cmd=cmd: n == cmd)
        out["cli.bytes_written"] = self.counters["cli.bytes_written"]
        out["cli.self_s"] = self_s["cli"]
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.span_coverage"] = self.span_coverage()
        return out

    def span_coverage(self) -> float:
        """Share of item wall time inside top-level layer spans of that item."""
        covered = sum(s[2] - s[1] for s in self.spans
                      if s[3] is None and s[4] is not None)
        total = sum(end - start for start, end in self.items.values())
        return covered / total if total else 0.0


def _profile_classes(base):
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found
