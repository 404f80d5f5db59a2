"""Benchmark of symbidisk: two seeded, closed-loop workloads.

    python3 bench/run.py --workload {sandwich,corpus} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.

* ``sandwich``: one ``pick.minimal_norm`` per item (the loop-bound stage).
* ``corpus``: ``symbidisk corpus --jobs 2`` over generated problem files
  (the CLI, serialization, synthesis and thread-pool stage); an item is one
  pass over a directory, its units are the files.

A run does a fixed amount of work: ``S`` divided by the workload's nominal
CPU time per item gives the item count, so a given seed and ``S`` always
run, check and count the same items.  Times are CPU seconds of the
benchmark process (all its threads, plus the interpreters it starts),
normalized to a nominal host by a reference kernel run between measured
pieces (see ``hostclock.py``).

With ``--trace 0`` the run measures, with no tracing,
``items_per_norm_cpu_s`` (units completed per normalized CPU second of the
timed items), ``setup_s`` (normalized CPU time of a fresh interpreter's
import plus input generation and one warm-up item, each the median of five)
and ``peak_rss_mb``; it also prints the wall-clock and raw CPU rates, the
median item wall time and, on ``sandwich``, the mean returned minimal norm.  With ``--trace 1`` it runs the first half of the items
untraced, then the same items again with every public function of every
layer wrapped (see ``tracer.py``), and reports per-layer metrics.  Either
way every output is checked outside the timed region (``failed`` counts
units that raised, failed a check or ended Unknown where a verdict was
planted), and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

# One BLAS thread, so that ``corpus --jobs 2`` is the only parallelism.  Set
# before numpy is first imported, which happens in ``main``.
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sandwich", "corpus")
SETUP_REPEATS = 5
# A run whose timed items take this many times ``--seconds`` of wall (a host
# far slower than the nominal one) stops early, so it ends in bounded time.
WALL_CAP = 2.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def item_count(name: str, seconds: float) -> int:
    """Items in a run of nominal length ``seconds``, whole rounds only."""
    import workloads

    cls = workloads.Sandwich if name == "sandwich" else workloads.Corpus
    rounds = math.ceil(seconds / (cls.cpu_s_per_item * cls.items_per_round))
    return cls.items_per_round * max(1, rounds)


def make_workload(name: str, seed: int, count: int, workdir: str):
    import workloads

    if name == "sandwich":
        return workloads.Sandwich(seed, count)
    return workloads.Corpus(seed, count, workdir)


def run_items(wl, count: int, clock, wall_cap: float, tracer=None) -> dict:
    """Closed loop over items ``0 .. count-1``: each starts when the previous
    one has finished.  Checks run between items, outside the timed region.
    """
    walls: list[float] = []
    cpus: list[float] = []
    verdicts: list[str] = []
    mark = clock.mark()
    for k in range(count):
        if sum(walls) > wall_cap and k % wl.items_per_round == 0:
            print(f"stopped after {k} of {count} items: timed wall passed {wall_cap:.0f} s")
            break
        if tracer is not None:
            tracer.begin_item(k)
        out, wall, cpu = clock.measure(lambda: wl.run_item(k))
        walls.append(wall)
        cpus.append(cpu)
        if tracer is not None:
            tracer.active = False
        try:
            if isinstance(out, Exception):  # a raising item is a failed item
                raise out
            verdicts += wl.after_item(k, out)
        except Exception:  # the item, or the check of its output, raised
            traceback.print_exc(file=sys.stderr)
            verdicts += ["failed"] * wl.units
        if tracer is not None:
            tracer.active = True
    return {"items": len(walls), "wall": walls, "cpu": cpus, "scale": clock.scale(mark),
            "verdicts": verdicts}


def environment() -> dict:
    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "symbidisk"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "symbidisk", "__init__.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    import hostclock
    import tracer as tracing

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, workdir, tracing, hostclock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def import_package():
    """A fresh interpreter importing numpy and the package."""
    subprocess.run(
        [sys.executable, "-c", "import symbidisk"], check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def measure(args, workdir, tracing, hostclock) -> int:
    count = item_count(args.workload, args.seconds)
    clock = hostclock.HostClock()

    def set_up():
        shutil.rmtree(workdir, ignore_errors=True)
        wl = make_workload(args.workload, args.seed, count, workdir)
        wl.run_warmup()
        return wl

    imports, setups = [], []
    mark = clock.mark()
    for _ in range(SETUP_REPEATS):
        out, _, cpu = clock.measure(import_package)
        if isinstance(out, Exception):
            raise out
        imports.append(cpu)
        wl, _, cpu = clock.measure(set_up)
        if isinstance(wl, Exception):
            raise wl
        setups.append(cpu)
    setup_scale = clock.scale(mark)
    setup_s = setup_scale * (statistics.median(imports) + statistics.median(setups))
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  items {count}  inputs {wl.digest}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    wall_cap = WALL_CAP * args.seconds

    if args.trace:
        half = wl.items_per_round * max(1, count // (2 * wl.items_per_round))
        untraced = run_items(wl, half, clock, wall_cap / 2)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = run_items(wl, untraced["items"], clock, wall_cap / 2, tracer=tr)
        finally:
            tr.uninstall()
        runs = (untraced, traced)
        metrics = tracing.layer_metrics(
            tr, units=traced["items"] * wl.units, jobs=getattr(wl, "jobs", 1)
        )
        metrics["trace.overhead_share"] = sum(traced["wall"]) / sum(untraced["wall"]) - 1.0
        units = {name: unit for name, unit, _ in tracing.METRICS}
        report_trace(tr, metrics, traced["items"] * wl.units, args.workload)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
        tr.write(spans)
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
        result_metrics = {
            name: {"value": metrics[name], "unit": units[name]} for name, _, _ in tracing.METRICS
        }
    else:
        run = run_items(wl, count, clock, wall_cap)
        runs = (run,)
        done = run["items"] * wl.units
        wall, cpu = sum(run["wall"]), sum(run["cpu"])
        norm = cpu * run["scale"]
        result_metrics = {
            "items_per_norm_cpu_s": {"value": done / norm, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        print(f"setup cpu (s): {' '.join(f'{x:.4f}' for x in setups)}  "
              f"imports: {' '.join(f'{x:.4f}' for x in imports)}  scale {setup_scale:.4f}")
        refs = clock.refs
        print(f"reference kernel cpu (s): median {statistics.median(refs):.4f}  "
              f"min {min(refs):.4f}  max {max(refs):.4f}  ({len(refs)} runs)")
        print(f"items {run['items']}  units {done}  timed wall {wall:.3f} s  cpu {cpu:.3f} s  "
              f"scale {run['scale']:.4f}  normalized cpu {norm:.3f} s")
        print(f"items_per_s (wall) {done / wall:.4f}  items_per_cpu_s {done / cpu:.4f}")
        ms = [1e3 * w for w in run["wall"]]
        print(f"item_p50_ms {statistics.median(ms):.4f} ms wall  ({len(ms)} items, "
              f"min {min(ms):.4f}, max {max(ms):.4f})")
        if args.workload == "sandwich" and wl.values:
            print(f"minnorm_mean {statistics.fmean(wl.values):.6f}  ({len(wl.values)} items)")

    verdicts = [v for run in runs for v in run["verdicts"]]
    attempted = len(verdicts)
    failed = sum(v != "ok" for v in verdicts)
    wrong = sum(v == "wrong" for v in verdicts)
    print(f"failed_share {failed / attempted:.4f} ratio  ({failed} of {attempted}, "
          f"{wrong} wrong outputs)")
    for name, m in result_metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


def report_trace(tr, metrics, units, workload) -> None:
    """Per-layer self time, the solve path table and the top layer."""
    import tracer as tracing

    layers = sorted(tracing.LAYERS, key=lambda layer: -metrics[f"{layer}.self_ms"])
    total = sum(metrics[f"{layer}.self_ms"] for layer in layers) or 1.0
    print(f"traced {units} units, {len(tr.name)} spans, "
          f"overhead {metrics['trace.overhead_share']:+.3f}")
    print("layer self time per unit:")
    for layer in layers:
        ms = metrics[f"{layer}.self_ms"]
        print(f"  {layer:<12} {ms:>12.4f} ms  {100 * ms / total:6.2f} %")
    print("solve paths per unit:")
    for path in tracing.PATHS:
        print(f"  {path:<12} {metrics[f'feasibility.solve.path.{path}.calls']:>10.4f} calls "
              f"{metrics[f'feasibility.solve.path.{path}.ms']:>12.4f} ms")
    print(f"top self-time layer on {workload}: {layers[0]} "
          f"({metrics[f'{layers[0]}.self_ms']:.4f} ms per unit)")


if __name__ == "__main__":
    sys.exit(main())
