"""Span tracer that wraps the public functions of every symbidisk layer.

The traced run records one span per call into a layer's public function,
from the benchmark's own process: nothing inside the package is modified.
Modules import each other's functions by name, so a function is replaced at
every module attribute that binds it (``symbidisk.pick.solve``,
``symbidisk.corona.solve`` and ``symbidisk.feasibility.solve`` are the same
object and all three are wrapped).

Spans live in flat arrays until the run ends.  Each span records its name,
start, end, parent span, thread and the id of the benchmark item it belongs
to.  Parent stacks are kept per thread; a span opened on a thread with an
empty stack (a ``corpus --jobs`` worker) takes as parent the innermost open
span of the thread that began the item.  Self time is a span's duration
minus the part of it that its child spans cover, children from several
threads merged into one union of intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from array import array
from collections import defaultdict

LAYERS = (
    "geometry",
    "hermitian",
    "kernels",
    "feasibility",
    "realization",
    "pick",
    "corona",
    "sequences",
    "gamma_ops",
    "serialize",
    "cli",
)

PATHS = ("cf_witness", "cf_kernel", "iterate", "probe", "unknown")


def classify_solve(report) -> str:
    """Deciding path of one ``feasibility.solve`` call, from its report alone."""
    status = report.status.value
    if status == "Unknown":
        return "unknown"
    if report.iterations == 0:
        return "cf_witness" if status == "Feasible" else "cf_kernel"
    if "certified after stall" in getattr(report, "notes", ()):
        return "probe"
    return "iterate"


class Tracer:
    """In-memory span store plus per-span annotations from return values."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.thread = array("l")
        self.notes: dict[int, object] = {}
        self.item_id = -1
        self.active = True
        self._owner: list[int] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_item(self, item_id: int) -> None:
        """Mark the calling thread as the owner of spans for ``item_id``."""
        self.item_id = item_id
        self._owner = self._stack()

    def open(self, nid: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner[-1] if self._owner else -1
        with self._lock:
            sid = len(self.name)
            self.name.append(nid)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self.parent.append(parent)
            self.item.append(self.item_id)
            self.thread.append(threading.get_ident())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    def record(self, name, start, end, parent=-1, item=0, thread=0) -> int:
        """Append a finished span directly (used to build trees by hand)."""
        sid = len(self.name)
        self.name.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.item.append(item)
        self.thread.append(thread)
        return sid

    def wrap(self, name: str, fn, note=None):
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(sid)
                self.notes[sid] = ("raised", type(exc).__name__)
                raise
            self.close(sid)
            if note is not None:
                self.notes[sid] = note(args, kwargs, out)
            return out

        return traced

    # -- installing wrappers -----------------------------------------------

    def install(self) -> int:
        """Wrap every public function of every layer wherever it is bound.

        Returns the number of module attributes replaced.
        """
        modules = [importlib.import_module("symbidisk")]
        modules += [importlib.import_module(f"symbidisk.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn, _NOTES.get(attr))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        return len(self._installed)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(sid)
        out = [e - s for s, e in zip(self.start, self.end)]
        for parent, kids in children.items():
            p0, p1 = self.start[parent], self.end[parent]
            covered = 0.0
            cur0 = cur1 = None
            for k in sorted(kids, key=self.start.__getitem__):
                a, b = max(self.start[k], p0), min(self.end[k], p1)
                if b <= a:
                    continue
                if cur1 is None or a > cur1:
                    if cur1 is not None:
                        covered += cur1 - cur0
                    cur0, cur1 = a, b
                else:
                    cur1 = max(cur1, b)
            if cur1 is not None:
                covered += cur1 - cur0
            out[parent] -= covered
        return out

    def write(self, path: str) -> None:
        """Save every span as numpy arrays (``names`` indexes ``name``)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{f: np.frombuffer(getattr(self, f), dtype=getattr(self, f).typecode)
               for f in ("name", "start", "end", "parent", "item", "thread")},
        )

    def ancestors_named(self, sid: int, nid: int) -> bool:
        parent = self.parent[sid]
        while parent >= 0:
            if self.name[parent] == nid:
                return True
            parent = self.parent[parent]
        return False


# Per-function facts taken from arguments or return values, keyed by the
# function's attribute name (unique across the layers that define them).
_NOTES = {
    "solve": lambda args, kwargs, out: (classify_solve(out), out.iterations),
    "dual_probe": lambda args, kwargs, out: out is not None,
    "transfer_eval_batch": lambda args, kwargs, out: len(out),
    "lurking_isometry": lambda args, kwargs, out: out.state_dim,
    "minimal_norm": lambda args, kwargs, out: float(out),
}


def _metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [
        ("geometry.membership.calls", "count", "lower"),
        ("geometry.membership.us_per_call", "us", "lower"),
        ("geometry.caratheodory_two_point.self_ms", "ms", "lower"),
        ("kernels.coefficient_masks.calls", "count", "lower"),
        ("kernels.admissibility_check.self_ms", "ms", "lower"),
        ("kernels.random_admissible_kernel.self_ms", "ms", "lower"),
        ("kernels.random_admissible_kernel.failed", "count", "lower"),
        ("hermitian.psd_project_stack.calls", "count", "lower"),
        ("hermitian.psd_project_stack.us_per_call", "us", "lower"),
        ("hermitian.psd_project.calls", "count", "lower"),
        ("hermitian.unitary_completion.self_ms", "ms", "lower"),
        ("feasibility.solve.calls", "count", "lower"),
        ("feasibility.solve.self_ms", "ms", "lower"),
        ("feasibility.solve.iterations", "count", "lower"),
        ("feasibility.solve.decided_share", "ratio", "higher"),
    ]
    for path in PATHS:
        specs.append((f"feasibility.solve.path.{path}.calls", "count", "lower"))
        specs.append((f"feasibility.solve.path.{path}.ms", "ms", "lower"))
    specs += [
        ("feasibility.dual_probe.calls", "count", "lower"),
        ("feasibility.dual_probe.hit_share", "ratio", "higher"),
        ("realization.lurking_isometry.self_ms", "ms", "lower"),
        ("realization.transfer_eval_batch.points", "count", "lower"),
        ("realization.transfer_eval_batch.us_per_point", "us", "lower"),
        ("realization.verify_contractivity.self_ms", "ms", "lower"),
        ("realization.state_dim.mean", "count", "lower"),
        ("realization.state_dim.max", "count", "lower"),
        ("pick.solve_pick.self_ms", "ms", "lower"),
        ("pick.minimal_norm.calls", "count", "lower"),
        ("pick.minimal_norm.solves_per_call", "count", "lower"),
        ("pick.minimal_norm.value_mean", "1", "lower"),
        ("corona.solve_corona.self_ms", "ms", "lower"),
        ("corona.verify_left_inverse.self_ms", "ms", "lower"),
        ("sequences.sample_kernel_census.self_ms", "ms", "lower"),
        ("sequences.strong_separation.self_ms", "ms", "lower"),
        ("serialize.report_hash.us_per_call", "us", "lower"),
        ("serialize.encode.self_ms", "ms", "lower"),
        ("serialize.decode.self_ms", "ms", "lower"),
        ("cli.execute_problem.self_ms", "ms", "lower"),
        ("cli.corpus.pool_busy_share", "ratio", "higher"),
    ]
    specs += [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    specs.append(("trace.overhead_share", "ratio", "lower"))
    return specs


METRICS = _metric_specs()


def layer_metrics(tr: Tracer, units: int, jobs: int = 1) -> dict[str, float]:
    """Per-layer metrics of a finished traced run; counts and ms are per unit.

    ``units`` is the number of workload items (corpus: files) the traced
    spans cover.  ``trace.overhead_share`` is left for the caller.
    """
    selfs = tr.self_times()
    names = tr.names
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    layer_self = defaultdict(float)
    for sid, nid in enumerate(tr.name):
        name = names[nid]
        calls[name] += 1
        total[name] += tr.end[sid] - tr.start[sid]
        own[name] += selfs[sid]
        layer_self[name.split(".")[0]] += selfs[sid]

    def notes_of(name):
        nid = tr.name_ids.get(name)
        return [(sid, tr.notes[sid]) for sid in tr.notes if tr.name[sid] == nid]

    def per_unit(x):
        return x / units

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    out["geometry.membership.calls"] = per_unit(calls["geometry.membership"])
    out["geometry.membership.us_per_call"] = 1e6 * ratio(
        total["geometry.membership"], calls["geometry.membership"]
    )
    out["geometry.caratheodory_two_point.self_ms"] = per_unit(
        1e3 * own["geometry.caratheodory_two_point"]
    )
    out["kernels.coefficient_masks.calls"] = per_unit(calls["kernels.coefficient_masks"])
    out["kernels.admissibility_check.self_ms"] = per_unit(1e3 * own["kernels.admissibility_check"])
    out["kernels.random_admissible_kernel.self_ms"] = per_unit(
        1e3 * own["kernels.random_admissible_kernel"]
    )
    out["kernels.random_admissible_kernel.failed"] = per_unit(
        sum(1 for _, n in notes_of("kernels.random_admissible_kernel") if n[0] == "raised")
    )
    out["hermitian.psd_project_stack.calls"] = per_unit(calls["hermitian.psd_project_stack"])
    out["hermitian.psd_project_stack.us_per_call"] = 1e6 * ratio(
        total["hermitian.psd_project_stack"], calls["hermitian.psd_project_stack"]
    )
    out["hermitian.psd_project.calls"] = per_unit(calls["hermitian.psd_project"])
    out["hermitian.unitary_completion.self_ms"] = per_unit(1e3 * own["hermitian.unitary_completion"])

    solves = [(sid, n) for sid, n in notes_of("feasibility.solve") if n[0] != "raised"]
    out["feasibility.solve.calls"] = per_unit(calls["feasibility.solve"])
    out["feasibility.solve.self_ms"] = per_unit(1e3 * own["feasibility.solve"])
    out["feasibility.solve.iterations"] = per_unit(sum(n[1] for _, n in solves))
    unknown = sum(1 for _, n in solves if n[0] == "unknown")
    out["feasibility.solve.decided_share"] = 1.0 - ratio(unknown, len(solves)) if solves else 0.0
    for path in PATHS:
        sids = [sid for sid, n in solves if n[0] == path]
        out[f"feasibility.solve.path.{path}.calls"] = per_unit(len(sids))
        out[f"feasibility.solve.path.{path}.ms"] = per_unit(
            1e3 * sum(tr.end[sid] - tr.start[sid] for sid in sids)
        )
    probes = [n for _, n in notes_of("feasibility.dual_probe")]
    out["feasibility.dual_probe.calls"] = per_unit(calls["feasibility.dual_probe"])
    out["feasibility.dual_probe.hit_share"] = ratio(sum(1 for n in probes if n is True), len(probes))

    out["realization.lurking_isometry.self_ms"] = per_unit(1e3 * own["realization.lurking_isometry"])
    points = sum(n for _, n in notes_of("realization.transfer_eval_batch") if not isinstance(n, tuple))
    out["realization.transfer_eval_batch.points"] = per_unit(points)
    out["realization.transfer_eval_batch.us_per_point"] = 1e6 * ratio(
        total["realization.transfer_eval_batch"], points
    )
    out["realization.verify_contractivity.self_ms"] = per_unit(
        1e3 * own["realization.verify_contractivity"]
    )
    dims = [n for _, n in notes_of("realization.lurking_isometry") if not isinstance(n, tuple)]
    out["realization.state_dim.mean"] = ratio(sum(dims), len(dims))
    out["realization.state_dim.max"] = float(max(dims, default=0))

    out["pick.solve_pick.self_ms"] = per_unit(1e3 * own["pick.solve_pick"])
    out["pick.minimal_norm.calls"] = per_unit(calls["pick.minimal_norm"])
    mn = tr.name_ids.get("pick.minimal_norm", -1)
    nested = sum(1 for sid, _ in solves if tr.ancestors_named(sid, mn))
    out["pick.minimal_norm.solves_per_call"] = ratio(nested, calls["pick.minimal_norm"])
    values = [n for _, n in notes_of("pick.minimal_norm") if not isinstance(n, tuple)]
    out["pick.minimal_norm.value_mean"] = ratio(sum(values), len(values))

    out["corona.solve_corona.self_ms"] = per_unit(1e3 * own["corona.solve_corona"])
    out["corona.verify_left_inverse.self_ms"] = per_unit(1e3 * own["corona.verify_left_inverse"])
    out["sequences.sample_kernel_census.self_ms"] = per_unit(
        1e3 * own["sequences.sample_kernel_census"]
    )
    out["sequences.strong_separation.self_ms"] = per_unit(1e3 * own["sequences.strong_separation"])
    out["serialize.report_hash.us_per_call"] = 1e6 * ratio(
        total["serialize.report_hash"], calls["serialize.report_hash"]
    )
    for prefix in ("encode", "decode"):
        out[f"serialize.{prefix}.self_ms"] = per_unit(
            1e3 * sum(v for k, v in own.items() if k.startswith(f"serialize.{prefix}_"))
        )
    out["cli.execute_problem.self_ms"] = per_unit(1e3 * own["cli.execute_problem"])
    corpus_nid = tr.name_ids.get("cli.corpus", -1)
    busy = sum(
        tr.end[sid] - tr.start[sid]
        for sid, nid in enumerate(tr.name)
        if names[nid] == "cli.execute_problem" and tr.ancestors_named(sid, corpus_nid)
    )
    out["cli.corpus.pool_busy_share"] = ratio(busy, total["cli.corpus"] * jobs)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per_unit(1e3 * layer_self[layer])
    return out
