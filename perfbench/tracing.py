"""Per-module spans around calls into dickesim, taken from outside the package.

``Tracer.install`` discovers every dickesim module, wraps each public name
in its ``__all__`` (functions, plus the constructor and public methods of
classes) and rebinds every copy of a wrapped function that another module
imported, so ``dickesim.cli.collapse_imperfect`` and
``dickesim.detection.apply_pulse`` are timed as well.  Names are found at
run time, so public functions a later change adds or removes are traced
without editing the benchmark.  ``uninstall`` puts every original binding
back, and ``installed()`` does both around a block, so untraced passes run
the unmodified program.  Private helpers are not wrapped: their time is self
time of the public caller (today that puts mixed-state xi, the private
``_rho_xi``, in the caller's module).

A span is (name, module, start, end, parent).  Spans live in memory and are
written out by ``write_spans``.  With ``track_memory`` the tracer also keeps
each module's tracemalloc peak above the allocation level at entry.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

PACKAGE = "dickesim"
# Each photon-law branch M is useful only within lambda_M +- WINDOW_SIGMAS
# sqrt(lambda_M) + WINDOW_PAD counts.
WINDOW_SIGMAS = 10.0
WINDOW_PAD = 20.0


@dataclass
class LayerStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    peak_alloc: int = 0


@dataclass
class Frame:
    span: int
    layer: str
    start: int
    child_ns: int = 0
    alloc_start: int = 0
    alloc_peak: int = 0


@dataclass
class Counts:
    """Work counts computed from the arguments and results of traced calls."""

    poisson_cells: int = 0
    useful_cells: int = 0
    dense_rho_bytes: int = 0
    trajectory_pulses: int = 0
    trajectory_apply_pulse: int = 0
    samples: int = 0


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.track_memory = False
        self.spans: list[tuple[str, str, int, int, int]] = []
        self.layers: dict[str, LayerStats] = {}
        self.counts = Counts()
        self.count_errors = 0
        self._stack: list[Frame] = []
        self._depth: dict[str, int] = {}
        self._in_trajectory = 0
        self._restore: list[tuple[object, str, object]] = []
        # bindings replaced by a wrapper at the last install
        self.wrapped = 0
        self.modules: list[str] = ["cli"]

    def reset(self) -> None:
        """Drop recorded spans, module totals and counts."""
        self.spans, self.counts, self.count_errors = [], Counts(), 0
        self.layers = {layer: LayerStats() for layer in self.modules}

    # -- installation -----------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """The wrappers in place for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.modules = sorted({mod.__name__.rpartition(".")[2] for mod in modules} | {"cli"})
        for layer in self.modules:
            self.layers.setdefault(layer, LayerStats())
        replaced: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(obj, layer, name)
                    replaced[id(obj)] = wrapper
                    self._set(mod, name, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(mod).items()):
                if id(value) in replaced and value is not replaced[id(value)]:
                    self._set(mod, name, replaced[id(value)])
        self.wrapped = len(self._restore)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                self._set(cls, attr, type(value)(self._wrap(value.__func__, layer, qual)))
            elif inspect.isfunction(value):
                self._set(cls, attr, self._wrap(value, layer, qual))

    def _set(self, owner: object, name: str, value: object) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- spans --------------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(layer)
            if name == "run_trajectory":
                tracer._in_trajectory += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if name == "run_trajectory":
                    tracer._in_trajectory -= 1
                tracer.exit(name)
            try:
                tracer.count(name, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                tracer.count_errors += 1  # an argument or result changed shape
            return result

        return traced

    def enter(self, layer: str) -> None:
        frame = Frame(span=len(self.spans), layer=layer, start=0)
        self.spans.append(None)  # filled on exit, so parents precede children
        if self.track_memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.alloc_peak = max(parent.alloc_peak, peak)
            tracemalloc.reset_peak()
            frame.alloc_start = frame.alloc_peak = current
        self._depth[layer] = self._depth.get(layer, 0) + 1
        self._stack.append(frame)
        frame.start = time.perf_counter_ns()

    def exit(self, name: str) -> None:
        end = time.perf_counter_ns()
        frame = self._stack.pop()
        duration = end - frame.start
        stats = self.layers.setdefault(frame.layer, LayerStats())
        stats.calls += 1
        stats.self_ns += duration - frame.child_ns
        self._depth[frame.layer] -= 1
        if self._depth[frame.layer] == 0:
            stats.busy_ns += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += duration
        if self.track_memory:
            frame.alloc_peak = max(frame.alloc_peak, tracemalloc.get_traced_memory()[1])
            stats.peak_alloc = max(stats.peak_alloc, frame.alloc_peak - frame.alloc_start)
            if parent is not None:
                parent.alloc_peak = max(parent.alloc_peak, frame.alloc_peak)
            tracemalloc.reset_peak()
        self.spans[frame.span] = (
            name,
            frame.layer,
            frame.start,
            end,
            parent.span if parent is not None else -1,
        )

    # -- computed work counts --------------------------------------------------
    def count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        c = self.counts
        if name == "photon_distribution":
            state = args[0] if args else kwargs["state"]
            lam = np.abs(state.field_alphas) ** 2
            n_max = result.probabilities.size - 1
            c.poisson_cells += lam.size * (n_max + 1)
            half = WINDOW_SIGMAS * np.sqrt(lam) + WINDOW_PAD
            lo = np.clip(np.floor(lam - half), 0, n_max)
            hi = np.clip(np.ceil(lam + half), 0, n_max)
            c.useful_cells += int(np.sum(hi - lo + 1))
        elif name == "run_trajectory":
            c.trajectory_pulses += len(args[1] if len(args) > 1 else kwargs["pulses"])
        elif name == "apply_pulse" and self._in_trajectory:
            c.trajectory_apply_pulse += 1
        elif name.startswith("sample_outcome"):
            c.samples += int(np.size(result))
        elif name.endswith(".__init__"):
            rho = getattr(args[0], "rho", None)
            if isinstance(rho, np.ndarray) and rho.ndim == 2:
                c.dense_rho_bytes += rho.nbytes

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines; returns the number written."""
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, layer, start, end, parent = span
                fh.write(json.dumps({"id": index, "name": name, "module": layer, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")
        return len(self.spans)
