"""Spans and counters recorded around calls into qmele, from outside it.

The benchmark wraps module-level names of the installed program: every
``qmele`` module that holds the same function object under some name gets
the wrapper, so ``from .model import filter_series`` bindings are covered
too. No program file is edited. A name that no longer exists is recorded
in ``missing`` with the reason and its layer is skipped, so the traced run
survives refactors that rename internals.

Pool workers forked while a tracer is installed inherit the wrappers; each
worker starts from empty statistics and writes them to ``dump_dir`` after
every top-level call, and the parent folds those files in with ``merge``.
"""

import copy
import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict

import numpy as np
import yardstick

# layer -> "module:name" targets whose calls count as that layer
LAYERS = {
    "estimation.optimizer": ["qmele.estimation:minimize"],
    "estimation.fit_self_weighted": ["qmele.estimation:fit_self_weighted"],
    "estimation.local_qmele_step": ["qmele.estimation:local_qmele_step"],
    "estimation.covariance": [
        "qmele.estimation:covariance_self_weighted",
        "qmele.estimation:_covariance_gauss",
    ],
    "weights.compute_weights": ["qmele.weights:compute_weights"],
    "weights.hill_sweep": ["qmele.weights:hill_sweep"],
    "model.filter_series": ["qmele.model:filter_series"],
    "model.simulate": ["qmele.model:simulate"],
    "diagnostics": [
        "qmele.diagnostics:standardized_residuals",
        "qmele.diagnostics:acf",
        "qmele.diagnostics:pacf",
    ],
    "cli.read_series_csv": ["qmele.cli:read_series_csv"],
    "reports.write": [
        "qmele.reports:write_csv",
        "qmele.reports:series_csv_rows",
        "qmele.reports:acf_csv_rows",
        "qmele.reports:hill_csv_rows",
        "qmele.reports:fit_report_text",
        "qmele.reports:fit_report_json",
        "qmele.reports:mc_table_text",
        "qmele.reports:mc_table_csv_rows",
        "qmele.reports:mc_replications_csv_rows",
    ],
    "montecarlo.run_replication": ["qmele.montecarlo:run_replication"],
    "montecarlo.run_scenario": ["qmele.montecarlo:run_scenario"],
}


def _resolve(target):
    mod_name, attr = target.split(":")
    return getattr(importlib.import_module(mod_name), attr)


def _rebind(orig, replacement, undo):
    """Point every qmele module name bound to `orig` at `replacement`."""
    for name, mod in list(sys.modules.items()):
        if name != "qmele" and not name.startswith("qmele."):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, replacement)
                undo.append((mod, key, orig))


class Stats:
    """Per-layer calls, inclusive and self seconds, plus named counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)

    def to_json(self):
        return {k: dict(getattr(self, k)) for k in ("calls", "total_s", "self_s", "counters")}

    def add(self, payload):
        for k in ("calls", "total_s", "self_s", "counters"):
            table = getattr(self, k)
            for name, val in payload[k].items():
                table[name] += val


class Tracer:
    def __init__(self, dump_dir):
        self.owner = os.getpid()
        self.dump_dir = dump_dir
        self.missing = {}
        self.stats = Stats()
        self.stack = []  # [layer, seconds covered by child spans]
        self.top_s = 0.0  # time covered by spans with no parent span
        self.pending_starts = []  # (nfev, fun, x0, x) of optimizer runs in the open fit
        self._undo = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.stats = Stats()
        self.stack = []
        self.top_s = 0.0
        self.pending_starts = []

    def inside(self, layer):
        return any(frame[0] == layer for frame in self.stack)

    def install(self):
        """Wrap every target in LAYERS; returns self."""
        for layer, targets in LAYERS.items():
            for target in targets:
                try:
                    orig = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    self.missing[target] = f"{type(exc).__name__}: {exc}"
                    continue
                _rebind(orig, self.wrapper(layer, orig, HOOKS.get(layer)), self._undo)
        return self

    def uninstall(self):
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def layer_present(self, layer):
        return any(t not in self.missing for t in LAYERS[layer])

    def wrapper(self, layer, orig, hook=None):
        tracer = self
        enter, leave = hook or (None, None)

        def traced(*args, **kwargs):
            if tracer.inside(layer):  # a layer calling itself is one span
                return orig(*args, **kwargs)
            token = enter(tracer, args, kwargs) if enter else None
            tracer.stack.append([layer, 0.0])
            t0 = time.perf_counter()
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                _, child_s = tracer.stack.pop()
                st = tracer.stats
                st.calls[layer] += 1
                st.total_s[layer] += dt
                st.self_s[layer] += dt - child_s
                st.counters["trace.wrapped_calls"] += 1
                if tracer.stack:
                    tracer.stack[-1][1] += dt
                else:
                    tracer.top_s += dt
                if leave:
                    leave(tracer, token, args, kwargs, result, dt)
                if not tracer.stack and os.getpid() != tracer.owner:
                    tracer._dump()

        traced.__wrapped__ = orig
        return traced

    def _dump(self):
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.stats.to_json(), fh)
        os.replace(tmp, path)

    def merge(self):
        """Fold in and delete the statistics pool workers wrote."""
        for name in sorted(os.listdir(self.dump_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                path = os.path.join(self.dump_dir, name)
                with open(path, encoding="utf-8") as fh:
                    self.stats.add(json.load(fh))
                os.remove(path)

    def snapshot(self):
        return copy.deepcopy(self.stats)


class SeriesClock:
    """Wall seconds of every call to one function, pool workers included,
    keyed by the call's second argument (the replication index).

    After each call the process runs the yardstick task, so a call's time
    can be put in multiples of the host's speed where the call ran: its
    ``ref`` is the mean of the yardstick before it (the previous call's in
    the same process) and after it. Each process appends to its own file
    in ``dump_dir``; ``collect`` reads and deletes them.
    """

    def __init__(self, target, dump_dir):
        self.target = target
        self.dump_dir = dump_dir
        self._undo = []

    def install(self):
        orig = _resolve(self.target)
        dump_dir = self.dump_dir
        last = {}  # pid -> yardstick seconds after the previous call

        def clocked(*args, **kwargs):
            key = args[1] if len(args) > 1 else kwargs.get("index")
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                pid = os.getpid()
                probe = yardstick.probe()
                ref = 0.5 * (last.get(pid, probe) + probe)
                last[pid] = probe
                path = os.path.join(dump_dir, f"clock-{pid}.txt")
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(f"{key!r} {dt!r} {ref!r} {probe!r}\n")

        _rebind(orig, clocked, self._undo)
        return self

    def uninstall(self):
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def collect(self):
        """Calls since the last collect, by process: {pid: [(key, seconds,
        ref, yardstick seconds), ...]}."""
        out = {}
        for name in sorted(os.listdir(self.dump_dir)):
            if name.startswith("clock-"):
                path = os.path.join(self.dump_dir, name)
                with open(path, encoding="utf-8") as fh:
                    rows = [line.split() for line in fh if line.strip()]
                out[name[len("clock-"):-len(".txt")]] = [
                    (key, float(dt), float(ref), float(probe)) for key, dt, ref, probe in rows
                ]
                os.remove(path)
        return out


class YardstickSampler:
    """Runs the yardstick after every call to one function, so a unit of
    work that lasts many seconds gets samples of the host's speed all
    through it, not only at its ends. ``drain`` returns the yardstick
    seconds taken since the last drain; the caller takes them out of the
    unit's wall time. A target that has gone leaves the sampler idle, with
    the reason in ``missing``.
    """

    def __init__(self, target, length=1000):
        self.target = target
        self.length = length
        self.samples = []
        self.missing = None
        self._undo = []

    def install(self):
        try:
            orig = _resolve(self.target)
        except (ImportError, AttributeError) as exc:
            self.missing = f"{type(exc).__name__}: {exc}"
            return self
        samples, length = self.samples, self.length

        def sampled(*args, **kwargs):
            try:
                return orig(*args, **kwargs)
            finally:
                samples.append(yardstick.probe(length))

        _rebind(orig, sampled, self._undo)
        return self

    def uninstall(self):
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def drain(self):
        out = list(self.samples)
        self.samples.clear()
        return out


def wrapper_cost_s(n=20000):
    """Seconds one wrapper adds per call, measured on a no-op function."""

    def noop():
        return None

    probe = Tracer.__new__(Tracer)
    probe.owner, probe.stats, probe.stack, probe.top_s = os.getpid(), Stats(), [], 0.0
    wrapped = probe.wrapper("probe", noop)
    best = []
    for fn in (noop, wrapped, noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best.append(time.perf_counter() - t0)
    return max(0.0, (min(best[1], best[3]) - min(best[0], best[2])) / n)


# ---------------------------------------------------------------------------
# layer hooks: counters taken where the work happens. A hook is a pair
# (enter, exit); enter's return value reaches exit as `token`.


def _optimizer_exit(tracer, token, args, kwargs, result, dt):
    if result is None:
        return
    nfev = int(getattr(result, "nfev", 0))
    c = tracer.stats.counters
    c["optimizer.nfev"] += nfev
    c["optimizer.nit"] += int(getattr(result, "nit", 0))
    c["optimizer.success"] += bool(getattr(result, "success", False))
    x0 = args[1] if len(args) > 1 else kwargs.get("x0")
    tracer.pending_starts.append(
        (nfev, float(getattr(result, "fun", float("inf"))), x0, getattr(result, "x", None))
    )


def _fit_enter(tracer, args, kwargs):
    tracer.pending_starts = []


def _fit_exit(tracer, token, args, kwargs, result, dt):
    runs, tracer.pending_starts = tracer.pending_starts, []
    if not runs:
        return
    # a run that starts where an earlier one ended continues it; the
    # winning run and the runs it continues are useful, the rest wasted
    parent = {}
    for i, (_, _, x0, _) in enumerate(runs):
        for j in range(i):
            if x0 is not None and runs[j][3] is not None and np.array_equal(x0, runs[j][3]):
                parent[i] = j
    best = min(range(len(runs)), key=lambda i: (runs[i][1], -i))
    useful = {best}
    while best in parent:
        best = parent[best]
        useful.add(best)
    wasted = sum(run[0] for i, run in enumerate(runs) if i not in useful)
    tracer.stats.counters["optimizer.wasted_nfev"] += wasted


def _local_step_exit(tracer, token, args, kwargs, result, dt):
    if result is not None:
        tracer.stats.counters["local_step.shrinks"] += int(getattr(result, "shrink_count", 0))


def _filter_exit(tracer, token, args, kwargs, result, dt):
    if tracer.inside("estimation.local_qmele_step"):
        tracer.stats.counters["filter_series.in_local_step"] += 1


def _reports_exit(tracer, token, args, kwargs, result, dt):
    # text builders return the report; write_csv returns None after
    # writing the file named by its first argument
    if isinstance(result, str):
        tracer.stats.counters["reports.bytes"] += len(result.encode("utf-8"))
    elif result is None and args and isinstance(args[0], (str, os.PathLike)) and os.path.exists(args[0]):
        tracer.stats.counters["reports.bytes"] += os.path.getsize(args[0])


def _children_cpu_s(tracer=None, args=None, kwargs=None):
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _scenario_exit(tracer, token, args, kwargs, result, dt):
    """Worker CPU seconds against jobs x wall for runs that use a pool."""
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1) or 1
    if jobs > 1:
        c = tracer.stats.counters
        c["pool.worker_cpu_s"] += _children_cpu_s() - token
        c["pool.jobs_wall_s"] += jobs * dt


HOOKS = {
    "estimation.optimizer": (None, _optimizer_exit),
    "estimation.fit_self_weighted": (_fit_enter, _fit_exit),
    "estimation.local_qmele_step": (None, _local_step_exit),
    "model.filter_series": (None, _filter_exit),
    "reports.write": (None, _reports_exit),
    "montecarlo.run_scenario": (_children_cpu_s, _scenario_exit),
}
