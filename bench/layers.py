"""Per-layer trace of the titrees package, taken from outside it.

The tracer wraps public functions of the package modules (the layers)
and times every call into them; nothing under ``src/`` changes.  A
wrapper replaces each binding of the original function object in the
package's module namespaces, including module-level dicts such as the
CLI's encoder table, and ``uninstall`` puts the originals back.  Spans
are aggregated per name as they close (calls, total time, self time):
keeping one record per emitted tree would cost more than the encoders
being measured.

One traced pass runs a workload's command line three times through
``titrees.cli.main``:

1. serially with only the generation entry points wrapped (the
   untraced reference, one span per run);
2. serially with every layer wrapped (the per-layer breakdown);
3. with the workload's worker count (at least two) and every layer
   wrapped (parallel cost, seen from the parent).

All three must write the same bytes, which must also pass the gate.
Forked workers inherit the wrappers; a wrapper running in a process
other than the tracer's drops its span and calls straight through.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import io
import itertools
import os
import pkgutil
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from workloads import WORKLOADS, Workload, check_digest, check_output, command_line, trees_in

PACKAGE = "titrees"

# The generation entry points; wrapping only these costs one span per run.
RUN_TARGETS = (
    ("generation", "generate_ti_trees"),
    ("generation", "generate_ti_trees_parallel"),
)
LAYER_TARGETS = (
    ("cli", "main"),
    ("enumeration", "generate_wti_trees"),
    ("wti", "join_wti_trees"),
    *RUN_TARGETS,
    ("formats", "graph6_line"),
    ("formats", "sparse6_line"),
    ("formats", "parent_list_line"),
)
ENCODERS = {"graph6": "graph6_line", "sparse6": "sparse6_line", "parent-list": "parent_list_line"}

# Every 8th tree of the emit stream feeds the encoder timings, three
# times over; the median of the three is reported.
ENCODER_STRIDE = 8
ENCODER_REPEATS = 3
MIN_PAR_WORKERS = 2

PER_LAYER_UNITS = {
    "enumeration.pool_s": "s",
    "enumeration.pool_trees": "count",
    "enumeration.failed_joins": "count",
    "enumeration.join_yield": "ratio",
    "wti.join_calls.pool": "count",
    "wti.join_s.pool": "s",
    "wti.join_calls.emit": "count",
    "wti.join_s.emit": "s",
    "wti.join_us.emit": "us",
    "generation.run_s": "s",
    "generation.self_s": "s",
    "generation.trees": "count",
    "generation.par.run_s": "s",
    "generation.par.parent_wait_s": "s",
    "generation.par.worker_cpu_s": "s",
    "generation.par.efficiency": "ratio",
    "formats.graph6_us": "us",
    "formats.sparse6_us": "us",
    "formats.parent_list_us": "us",
    "formats.bytes_per_tree": "B",
    "formats.encode_s": "s",
    "cli.write_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _rebind(old, new) -> None:
    """Replace every binding of ``old`` in the package's namespaces by ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == PACKAGE or module_name.startswith(PACKAGE + ".")):
            continue
        for name, value in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if value is old:
                setattr(module, name, new)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new


class Tracer:
    """Aggregated spans of the calls into the wrapped functions."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        # name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        # Self time of the spans nested in a generation run.
        self.nested_self = 0.0
        self.run_cpu = 0.0
        self.run_children_cpu = 0.0
        self._stack: list[list[float]] = []
        self._run_depth = 0
        self._pool_depth = 0
        self._installed: list[tuple[object, object]] = []

    # -- spans ---------------------------------------------------------

    def _span(self, key: str, fn, args, kwargs):
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            own = elapsed - frame[0]
            span = self.spans[key]
            span[0] += 1
            span[1] += elapsed
            span[2] += own
            if stack:
                stack[-1][0] += elapsed
            if self._run_depth:
                self.nested_self += own

    def _join(self, key, fn, args, kwargs):
        return self._span(key + (".pool" if self._pool_depth else ".emit"), fn, args, kwargs)

    def _pool(self, key, fn, args, kwargs):
        # Ask the pool builder for its failed-join count when the caller
        # did not, and read back only what this call added.
        stats = None
        try:
            signature = inspect.signature(fn)
            bound = signature.bind(*args, **kwargs)
        except (TypeError, ValueError):
            signature = bound = None
        if bound is not None and "stats" in signature.parameters:
            if bound.arguments.get("stats") is None:
                bound.arguments["stats"] = {}
            stats = bound.arguments["stats"]
            args, kwargs = bound.args, bound.kwargs
        before = stats.get("failed_joins", 0) if stats is not None else 0
        self._pool_depth += 1
        try:
            pool = self._span(key, fn, args, kwargs)
        finally:
            self._pool_depth -= 1
        if stats is not None:
            self.counts["failed_joins"] += stats.get("failed_joins", 0) - before
        try:
            self.counts["pool_trees"] += sum(len(trees) for trees in pool)
        except TypeError:
            pass
        return pool

    def _run(self, key, fn, args, kwargs):
        def run(*args, **kwargs):
            cpu, children = time.process_time(), _children_cpu()
            self._run_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._run_depth -= 1
                self.run_cpu += time.process_time() - cpu
                self.run_children_cpu += _children_cpu() - children

        return self._span(key, run, args, kwargs)

    def wrap(self, key: str, fn):
        handler = {
            "wti.join_wti_trees": self._join,
            "enumeration.generate_wti_trees": self._pool,
        }.get(key, self._run if key.startswith("generation.") else self._span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:  # forked worker: drop its spans
                return fn(*args, **kwargs)
            return handler(key, fn, args, kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, targets) -> None:
        for module_name, name in targets:
            key = f"{module_name}.{name}"
            try:
                original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), name)
            except (ImportError, AttributeError):
                self.missing.append(key)
                continue
            wrapper = self.wrap(key, original)
            _rebind(original, wrapper)
            self._installed.append((original, wrapper))

    def uninstall(self) -> None:
        while self._installed:
            original, wrapper = self._installed.pop()
            _rebind(wrapper, original)


class Sink(io.BufferedIOBase):
    """Standard output of an in-process CLI run: hashed and counted.

    Only a count run's output is kept, for the census check.
    """

    def __init__(self, keep: bool) -> None:
        super().__init__()
        self.digest = hashlib.sha256()
        self.size = 0
        self.lines = 0
        self.kept: list[bytes] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        data = bytes(data)
        self.digest.update(data)
        self.size += len(data)
        self.lines += data.count(b"\n")
        if self.kept is not None:
            self.kept.append(data)
        return len(data)


def run_main(argv: list[str], sink: Sink) -> int:
    """``titrees.cli.main(argv)`` with standard output going to ``sink``."""
    stdout = io.TextIOWrapper(sink, write_through=True)
    saved, sys.stdout = sys.stdout, stdout
    try:
        return importlib.import_module(f"{PACKAGE}.cli").main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = saved
        stdout.detach()


def stage(targets, argv: list[str], mode: str, n_max: int) -> dict:
    """One in-process CLI run with ``targets`` wrapped."""
    tracer = Tracer()
    sink = Sink(keep=mode == "count")
    if ("cli", "main") in targets:
        sink.write = tracer.wrap("cli.write", sink.write)
    tracer.install(targets)
    try:
        status = run_main(argv, sink)
    finally:
        tracer.uninstall()
    out = b"".join(sink.kept) if sink.kept is not None else b""
    digest = sink.digest.hexdigest()
    if mode == "count":
        reason = check_output(mode, n_max, status, out)
    else:
        reason = f"exit status {status}" if status != 0 else check_digest(mode, n_max, digest)
    runs = [tracer.spans[f"{m}.{n}"] for m, n in RUN_TARGETS]
    return {
        "argv": argv,
        "tracer": tracer,
        "failure": reason,
        "digest": digest,
        "bytes": sink.size,
        "trees": trees_in(mode, out) if mode == "count" and reason is None else sink.lines,
        "run_s": sum(span[1] for span in runs),
        "run_self_s": sum(span[2] for span in runs),
    }


def encoder_costs(n_max: int) -> dict[str, float]:
    """Microseconds per tree of each encoder over a sample of an emit stream.

    The stream is every tree of order <= ``n_max``; every
    ENCODER_STRIDE-th tree is kept.  A missing encoder costs 0.
    """
    generation = importlib.import_module(f"{PACKAGE}.generation")
    formats = importlib.import_module(f"{PACKAGE}.formats")
    sample = []
    position = itertools.count()
    generation.generate_ti_trees(
        n_max, None, lambda tree: sample.append(tree) if next(position) % ENCODER_STRIDE == 0 else None
    )
    costs = {}
    for mode, name in ENCODERS.items():
        encode = getattr(formats, name, None)
        if encode is None or not sample:
            costs[mode] = 0.0
            continue
        times = []
        for _ in range(ENCODER_REPEATS):
            start = time.perf_counter()
            for tree in sample:
                encode(tree)
            times.append(time.perf_counter() - start)
        costs[mode] = statistics.median(times) / len(sample) * 1e6
    return costs


def traced_pass(workload: Workload, seed: int, n_max: int, stream_n: int) -> tuple[dict, dict]:
    """Per-layer metrics of one pass, and its details."""
    mode = workload.mode
    workers = max(workload.threads, MIN_PAR_WORKERS)
    serial = command_line(replace(workload, threads=1), seed, n_max)
    parallel = command_line(replace(workload, threads=workers), seed, n_max)
    ref = stage(RUN_TARGETS, serial, mode, n_max)
    traced = stage(LAYER_TARGETS, serial, mode, n_max)
    par = stage(LAYER_TARGETS, parallel, mode, n_max)
    stages = (ref, traced, par)
    failures = []
    for s in stages:
        reason = s["failure"]
        if reason is None and s["digest"] != ref["digest"]:
            reason = "wrote other bytes than the untraced run"
        if reason is not None:
            failures.append(f"{' '.join(s['argv'])}: {reason}")

    tracer = traced["tracer"]
    spans = tracer.spans
    trees = traced["trees"]
    pool_calls = spans["wti.join_wti_trees.pool"][0]
    emit_calls, emit_s = spans["wti.join_wti_trees.emit"][:2]
    par_tracer = par["tracer"]
    costs = encoder_costs(stream_n)
    metrics = {
        "enumeration.pool_s": spans["enumeration.generate_wti_trees"][1],
        "enumeration.pool_trees": tracer.counts["pool_trees"],
        "enumeration.failed_joins": tracer.counts["failed_joins"],
        "enumeration.join_yield": tracer.counts["pool_trees"] / pool_calls if pool_calls else 0.0,
        "wti.join_calls.pool": pool_calls,
        "wti.join_s.pool": spans["wti.join_wti_trees.pool"][1],
        "wti.join_calls.emit": emit_calls,
        "wti.join_s.emit": emit_s,
        "wti.join_us.emit": emit_s / emit_calls * 1e6 if emit_calls else 0.0,
        "generation.run_s": traced["run_s"],
        "generation.self_s": traced["run_self_s"],
        "generation.trees": trees,
        "generation.par.run_s": par["run_s"],
        "generation.par.parent_wait_s": par["run_s"] - par_tracer.run_cpu,
        "generation.par.worker_cpu_s": par_tracer.run_children_cpu,
        "generation.par.efficiency": ref["run_s"] / (workers * par["run_s"]),
        "formats.graph6_us": costs["graph6"],
        "formats.sparse6_us": costs["sparse6"],
        "formats.parent_list_us": costs["parent-list"],
        "formats.bytes_per_tree": traced["bytes"] / trees if trees else 0.0,
        "formats.encode_s": sum(spans[f"formats.{name}"][1] for name in ENCODERS.values()),
        "cli.write_s": spans["cli.write"][1],
        "trace.overhead_s": traced["run_s"] - ref["run_s"],
    }
    self_times = {
        "generation": traced["run_self_s"],
        "enumeration": spans["enumeration.generate_wti_trees"][2],
        "wti.join.pool": spans["wti.join_wti_trees.pool"][2],
        "wti.join.emit": emit_s,
        **{f"formats.{name}": spans[f"formats.{name}"][2] for name in ENCODERS.values()},
        "cli.write": spans["cli.write"][2],
    }
    called = {key for s in stages for key, span in s["tracer"].spans.items() if span[0]}
    detail = {
        "digest": traced["digest"],
        "failures": failures,
        "missing": tracer.missing,
        "never_called": sorted(f"{m}.{n}" for m, n in LAYER_TARGETS
                               if not any(k.startswith(f"{m}.{n}") for k in called)),
        "self_times": self_times,
        "self_sum_s": traced["run_self_s"] + tracer.nested_self,
        "largest_self": max(self_times, key=self_times.get),
    }
    return metrics, detail


def load_package(src: Path) -> float:
    """Import the package from ``src`` with all its modules; the CLI import time."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_s = time.perf_counter() - start
    package = importlib.import_module(PACKAGE)
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"{PACKAGE} was imported from {cli.__file__}, not from {src}")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return import_s


def traced_run(workload: Workload, seed: int, seconds: float, src: Path,
               n_max: int | None = None) -> tuple[dict, dict]:
    """Traced passes over ``workload`` for about ``seconds``; medians per metric.

    ``n_max`` overrides the workload's order (and that of the emit
    stream the encoders are timed on), for a quick smoke run.
    """
    import_s = load_package(src)
    n_max = workload.n_max if n_max is None else n_max
    stream_n = WORKLOADS["emit"].n_max if n_max == workload.n_max else n_max
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(traced_pass(workload, seed, n_max, stream_n))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    failures = [f for _, detail in passes for f in detail["failures"]]
    metrics = {}
    for name in passes[0][0]:
        values = [m[name] for m, _ in passes]
        # Counts agree across passes; the median of an even number of them would be a float.
        count = PER_LAYER_UNITS[name] == "count"
        metrics[name] = statistics.median_low(values) if count else statistics.median(values)
    metrics["cli.import_s"] = import_s
    result = {
        "correct": not failures,
        "attempted": 3 * len(passes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER_UNITS.items()},
    }
    detail = {"passes": len(passes), **passes[-1][1], "failures": failures[:10]}
    return result, detail
