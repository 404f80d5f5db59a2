"""Self-tests of the benchmark: run with ``python3 -m pytest -q bench``."""

import json
import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import symbidisk  # noqa: E402
import symbidisk.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from symbidisk.feasibility import SolveReport, SolveStatus  # noqa: E402


def _report(status, iterations, notes=()):
    return SolveReport(
        status=SolveStatus(status), residual=0.0, iterations=iterations,
        wall_time=0.0, notes=tuple(notes),
    )


@pytest.mark.parametrize(
    "report, path",
    [
        (_report("Feasible", 0, ["single-atom witness"]), "cf_witness"),
        (_report("InfeasibleCertified", 0, ["certified by direct kernel candidate"]),
         "cf_kernel"),
        (_report("Feasible", 812, ["tolerance met at iteration 412; polishing"]), "iterate"),
        (_report("InfeasibleCertified", 500, ["certified after stall"]), "probe"),
        (_report("Unknown", 6000, ["best residual 1.2e-08"]), "unknown"),
    ],
)
def test_classify_solve(report, path):
    assert tracer.classify_solve(report) == path


def test_self_time_subtracts_children_across_threads():
    tr = tracer.Tracer()
    root = tr.record("cli.corpus", 0.0, 10.0, thread=1)
    # two pool workers overlap on [3, 5]; together they cover [1, 8]
    a = tr.record("cli.execute_problem", 1.0, 5.0, parent=root, thread=2)
    b = tr.record("cli.execute_problem", 3.0, 8.0, parent=root, thread=3)
    leaf = tr.record("pick.solve_pick", 2.0, 3.0, parent=a, thread=2)
    own = tr.self_times()
    assert own[root] == pytest.approx(3.0)
    assert own[a] == pytest.approx(3.0)
    assert own[b] == pytest.approx(5.0)
    assert own[leaf] == pytest.approx(1.0)


def test_worker_spans_take_the_item_owner_as_parent():
    tr = tracer.Tracer()
    tr.begin_item(7)
    outer = tr.open(tr.intern("cli.corpus"))
    worker = threading.Thread(target=lambda: tr.close(tr.open(tr.intern("cli.run"))))
    worker.start()
    worker.join(timeout=10)
    tr.close(outer)
    assert not worker.is_alive()
    assert list(tr.parent) == [-1, outer]
    assert list(tr.item) == [7, 7]
    assert tr.thread[0] != tr.thread[1]


def test_install_wraps_every_binding_and_uninstall_restores():
    original = symbidisk.feasibility.solve
    stack = symbidisk.hermitian.psd_project_stack
    tr = tracer.Tracer()
    try:
        assert tr.install() > 0
        wrapped = symbidisk.feasibility.solve
        assert wrapped is not original
        assert symbidisk.pick.solve is wrapped
        assert symbidisk.corona.solve is wrapped
        assert symbidisk.solve is wrapped
        assert symbidisk.feasibility.psd_project_stack is not stack
        assert symbidisk.hermitian.psd_project_stack is symbidisk.feasibility.psd_project_stack
    finally:
        tr.uninstall()
    assert symbidisk.feasibility.solve is original
    assert symbidisk.pick.solve is original
    assert symbidisk.feasibility.psd_project_stack is stack


def test_traced_solve_records_its_path():
    tr = tracer.Tracer()
    problem = symbidisk.PickProblem(
        nodes=symbidisk.NodeSet.from_pairs([(1.0, 0.25), (-1.0, 0.25)]),
        targets=(np.array([[-0.5]]), np.array([[0.5]])),
    )
    try:
        tr.install()
        symbidisk.solve_pick(problem)
    finally:
        tr.uninstall()
    metrics = tracer.layer_metrics(tr, units=1)
    assert set(metrics) | {"trace.overhead_share"} == {m[0] for m in tracer.METRICS}
    assert metrics["feasibility.solve.calls"] == 1
    assert metrics["feasibility.solve.path.cf_witness.calls"] == 1
    assert metrics["pick.self_ms"] > 0


def test_generators_are_deterministic(tmp_path):
    assert workloads.Sandwich(3, 8).digest == workloads.Sandwich(3, 8).digest
    assert workloads.Sandwich(3, 8).digest != workloads.Sandwich(4, 8).digest
    a = workloads.Corpus(3, 4, str(tmp_path / "x"))
    b = workloads.Corpus(3, 4, str(tmp_path / "y"))
    assert a.digest == b.digest != workloads.Corpus(4, 4, str(tmp_path / "z")).digest
    one = workloads.CorpusFiles(3).write(str(tmp_path / "a"))
    two = workloads.CorpusFiles(3).write(str(tmp_path / "b"))
    other = workloads.CorpusFiles(4).write(str(tmp_path / "c"))
    assert one == two != other
    assert sorted(os.listdir(tmp_path / "a")) == sorted(os.listdir(tmp_path / "b"))


def test_corpus_reports_reverify_and_tampering_is_caught(tmp_path):
    files = workloads.CorpusFiles(5, loop=False)
    files.write(str(tmp_path / "in"))
    code = symbidisk.cli.run(
        ["corpus", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
         "--jobs", "2"]
    )
    assert code == 0
    kinds = set()
    for name, (problem, expected) in files.files.items():
        with open(tmp_path / "out" / f"{name}.report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert workloads.check_report(report, expected) == "ok", name
        kinds.add((report["kind"], report.get("status")))
        solve = report.get("solve", {})
        if solve.get("status") == "Feasible":
            solve["blocks"]["blocks"][0]["entries"][0][0] += 1e-3
            assert workloads.check_report(report, expected) == "wrong", name
        elif solve.get("status") == "InfeasibleCertified":
            # an indefinite kernel is not grid-admissible
            solve["certificate"]["entries"][1] = [5.0, 0.0]
            solve["certificate"]["entries"][2] = [5.0, 0.0]
            assert workloads.check_report(report, expected) == "wrong", name
    assert ("pick", "InfeasibleCertified") in kinds
    assert ("corona", "Feasible") in kinds


def test_run_size_depends_on_seconds_only():
    sys.path.insert(0, HERE)
    import run

    assert run.item_count("sandwich", 50) == run.item_count("sandwich", 50) >= 1
    assert run.item_count("corpus", 50) % workloads.Corpus.items_per_round == 0
    assert run.item_count("corpus", 0.1) == workloads.Corpus.items_per_round


def test_host_clock_scales_a_phase_by_its_reference_runs():
    import hostclock

    refs = iter([0.1, 0.3, 0.2, 0.4])
    clock = hostclock.HostClock(kernel=lambda: next(refs))
    clock.measure(lambda: None)
    mark = clock.mark()
    out, wall, cpu = clock.measure(lambda: sum(i * i for i in range(200000)))
    assert out == sum(i * i for i in range(200000))
    assert wall > 0 and cpu > 0
    out, _, _ = clock.measure(lambda: 1 / 0)
    assert isinstance(out, ZeroDivisionError)
    # the phase's pieces are bracketed by the runs 0.3, 0.2 and 0.4
    assert clock.scale(mark) == pytest.approx(hostclock.REF_NOMINAL_S / 0.3)
