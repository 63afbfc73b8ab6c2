"""Spans and counters at frontlab's module boundaries, installed from outside.

Tracer.install() replaces each traced function of frontlab with a wrapper,
everywhere the function is reachable by name: its own module, every other
frontlab module that imported it (front.eval_g, sim.eval_g, ...) and the
cli.COMMANDS table.  Nothing inside frontlab changes.

Two kinds of wrapper:

* span functions record (name, start, end, parent) on a per-thread stack,
  so the sweep's worker threads get their own, correctly parented spans;
* counted functions (the ignition rate and its derivative, and the numpy /
  scipy FFT transforms) are too frequent for one span per call; they add
  calls, busy seconds and, for transforms, input elements to per-thread
  counters.  A transform is charged to the module of the innermost open
  span ("sim.fft", "norms.fft", ...).

Spans and counters stay in memory until dump() writes them out as JSON.
summarize() turns a list of dumps into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from time import perf_counter

SPANS = {
    "cli": ("cmd_spectrum", "cmd_front", "cmd_simulate", "cmd_verify", "cmd_sweep",
            "_write_snapshot", "_write_summary"),
    "front": ("shoot_speed", "write_profile_csv"),
    "sim": ("run", "step_imex", "apply_linear_exact", "dt_max", "build_perturbation"),
    "norms": ("norm_unweighted", "norm_weighted", "fit_decay",
              "verify_stability_theorem", "write_norms_csv"),
    "spectral": ("sweep_symbol", "semigroup_envelope", "write_spectrum_csv"),
}
COUNTED = {"model": ("eval_g", "eval_g_prime")}
WRITERS = ("cli._write_snapshot", "cli._write_summary", "front.write_profile_csv",
           "norms.write_norms_csv", "spectral.write_spectrum_csv")
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# per-layer metric -> the traced names it is derived from
LAYER_METRICS = {
    "front.shoot_speed.s": ["front.shoot_speed"],
    "model.eval_g.calls": ["model.eval_g"],
    "model.eval_g.s": ["model.eval_g"],
    "model.eval_g_prime.calls": ["model.eval_g_prime"],
    "model.eval_g_prime.s": ["model.eval_g_prime"],
    "sim.fft.calls": [],
    "sim.fft.s": [],
    "sim.fft.elements": [],
    "sim.run.calls": ["sim.run"],
    "sim.run.s": ["sim.run"],
    "sim.build_perturbation.s": ["sim.build_perturbation"],
    "sim.step_imex.calls": ["sim.step_imex"],
    "sim.step_imex.s": ["sim.step_imex"],
    "sim.apply_linear_exact.calls": ["sim.apply_linear_exact"],
    "sim.apply_linear_exact.s": ["sim.apply_linear_exact"],
    "sim.apply_linear_exact.first_s": ["sim.run", "sim.apply_linear_exact"],
    "sim.dt_max.calls": ["sim.dt_max"],
    "sim.dt_max.s": ["sim.dt_max"],
    "sim.nonlinear.s": ["sim.step_imex", "sim.apply_linear_exact", "sim.dt_max"],
    "norms.norm_unweighted.calls": ["norms.norm_unweighted"],
    "norms.norm_unweighted.s": ["norms.norm_unweighted"],
    "norms.norm_weighted.calls": ["norms.norm_weighted"],
    "norms.norm_weighted.s": ["norms.norm_weighted"],
    "norms.fft.calls": [],
    "norms.fft.s": [],
    "norms.fit_decay.calls": ["norms.fit_decay"],
    "norms.fit_decay.s": ["norms.fit_decay"],
    "norms.verify_stability_theorem.s": ["norms.verify_stability_theorem"],
    "spectral.sweep_symbol.calls": ["spectral.sweep_symbol"],
    "spectral.sweep_symbol.s": ["spectral.sweep_symbol"],
    "spectral.semigroup_envelope.s": ["spectral.semigroup_envelope"],
    "cli.write.s": [],
    "cli.cmd_front.s": ["cli.cmd_front"],
    "cli.cmd_verify.s": ["cli.cmd_verify"],
    "cli.cmd_simulate.s": ["cli.cmd_simulate"],
    "cli.cmd_spectrum.s": ["cli.cmd_spectrum"],
    "cli.cmd_sweep.s": ["cli.cmd_sweep"],
    "cli.sweep.row_s": ["cli.cmd_sweep"],
}


class _ThreadState(threading.local):
    def __init__(self, tracer: "Tracer"):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []      # indices of the open spans
        self.counters = {}   # name -> [calls, seconds, elements]
        with tracer._lock:
            tracer._threads.append((threading.get_ident(), self.spans, self.counters))


class Tracer:
    """Wraps frontlab's layer functions; one instance per traced process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._threads = []
        self._local = _ThreadState(self)  # re-initialized per thread on first use
        self.absent = []

    def _span(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(local.spans))
            local.spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name, fn, transform: bool = False):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                key = name
                if transform:
                    stack = local.stack
                    owner = local.spans[stack[-1]][0].split(".")[0] if stack else "none"
                    key = f"{owner}.fft"
                entry = local.counters.get(key)
                if entry is None:
                    entry = local.counters[key] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
                if transform and args:
                    entry[2] += int(getattr(args[0], "size", 0))

        return wrapper

    def install(self) -> None:
        """Patch every traced name that exists; record the ones that do not."""
        modules = {name: importlib.import_module(f"frontlab.{name}")
                   for name in ("cli", "front", "sim", "norms", "spectral", "model")}
        replace = {}
        for group, counted in ((SPANS, False), (COUNTED, True)):
            for mod, names in group.items():
                for attr in names:
                    fn = getattr(modules[mod], attr, None)
                    if not callable(fn):
                        self.absent.append(f"{mod}.{attr}")
                        continue
                    name = f"{mod}.{attr}"
                    replace[id(fn)] = (self._counted(name, fn) if counted
                                       else self._span(name, fn))
        for mod in FFT_MODULES:
            module = importlib.import_module(mod)
            for attr in FFT_NAMES:
                fn = getattr(module, attr, None)
                if callable(fn):
                    replace[id(fn)] = self._counted(attr, fn, transform=True)
                    setattr(module, attr, replace[id(fn)])
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in replace:
                    setattr(module, attr, replace[id(value)])
        table = getattr(modules["cli"], "COMMANDS", {})
        for key, value in list(table.items()):
            if id(value) in replace:
                table[key] = replace[id(value)]

    def dump(self, path) -> None:
        with self._lock:
            threads = [{"thread": ident, "spans": spans, "counters": counters}
                       for ident, spans, counters in self._threads]
        doc = {"main_thread": threading.main_thread().ident, "absent": self.absent,
               "threads": threads}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _outermost_time(spans: list, name: str) -> float:
    """Busy time of `name`: its spans with no enclosing span of the same name."""
    total = 0.0
    for rec in spans:
        if rec[0] != name:
            continue
        parent = rec[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += rec[2] - rec[1]
    return total


def summarize(dumps: list) -> tuple[dict, list]:
    """Per-layer metrics summed over the dumps of one round; also the absent metrics."""
    absent_names = set()
    m = {key: 0.0 for key in LAYER_METRICS}
    for doc in dumps:
        absent_names.update(doc["absent"])
        for th in doc["threads"]:
            spans = th["spans"]
            children = {}
            for i, rec in enumerate(spans):
                children.setdefault(rec[3], []).append(i)
            for name in {rec[0] for rec in spans}:
                calls = sum(1 for rec in spans if rec[0] == name)
                if f"{name}.calls" in m:
                    m[f"{name}.calls"] += calls
                if f"{name}.s" in m:
                    m[f"{name}.s"] += _outermost_time(spans, name)
            for i, rec in enumerate(spans):
                kids = [spans[j] for j in children.get(i, ())]
                if rec[0] == "sim.step_imex":
                    m["sim.nonlinear.s"] += (rec[2] - rec[1]) - sum(
                        k[2] - k[1] for k in kids
                        if k[0] in ("sim.apply_linear_exact", "sim.dt_max"))
                elif rec[0] == "sim.run":
                    m["sim.apply_linear_exact.first_s"] += _first_descendant(
                        spans, children, i, "sim.apply_linear_exact")
                elif rec[0] in WRITERS:
                    m["cli.write.s"] += rec[2] - rec[1]
                elif (rec[0].startswith("cli.cmd_") and rec[0] != "cli.cmd_sweep"
                      and rec[3] < 0 and th["thread"] != doc["main_thread"]):
                    m["cli.sweep.row_s"] += rec[2] - rec[1]
            for key, (calls, seconds, elements) in th["counters"].items():
                if f"{key}.calls" in m:
                    m[f"{key}.calls"] += calls
                    m[f"{key}.s"] += seconds
                if f"{key}.elements" in m:
                    m[f"{key}.elements"] += elements
    absent = sorted(key for key, needs in LAYER_METRICS.items()
                    if any(n in absent_names for n in needs))
    for key in absent:
        del m[key]
    return m, absent


def _first_descendant(spans, children, root: int, name: str) -> float:
    """Duration of the earliest span called `name` below span `root`."""
    todo = list(children.get(root, ()))
    best = None
    while todo:
        i = todo.pop()
        if spans[i][0] == name and (best is None or spans[i][1] < spans[best][1]):
            best = i
        todo.extend(children.get(i, ()))
    return 0.0 if best is None else spans[best][2] - spans[best][1]
