import threading

import pytest

import tracing
from entroduction import engine
from entroduction.harness import benchmark
from entroduction.structure import Chain
from run import per_layer, run_window
from workloads import WORKLOADS


def test_wrappers_restored_after_traced_run():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tracing.PATCHES}
    tracer = tracing.Tracer()
    with tracer.installed():
        assert not tracing.patches_restored()
        window = run_window(WORKLOADS["synthetic_sweep"], 5, 0.0, tracer=tracer)
    assert tracing.patches_restored()
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn
    assert window.tasks == WORKLOADS["synthetic_sweep"].digest_tasks
    names = {span.name for span in tracer.spans}
    assert {tracing.TASK, tracing.RUN_TASK, tracing.METRICS, tracing.SOLVE} <= names


def test_wrappers_restored_when_the_run_raises():
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert tracing.patches_restored()
    assert engine.compute_step_metrics.__module__ == "entroduction.metrics"
    assert benchmark.run_task.__module__ == "entroduction.engine"
    assert not hasattr(vars(Chain)["deepen"], "__wrapped__")


def test_traced_digest_equals_untraced_and_self_times_nest():
    workload = WORKLOADS["synthetic_sweep"]
    plain = run_window(workload, 3, 0.0)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_window(workload, 3, 0.0, tracer=tracer)
    assert traced.digest == plain.digest
    own = tracing.self_times(tracer.spans)
    assert min(own) >= 0.0
    roots = sum(s.duration for s in tracer.spans if s.parent < 0)
    assert sum(own) == pytest.approx(roots, rel=1e-9)


def test_worker_thread_spans_hang_under_the_client_span():
    tracer = tracing.Tracer()
    step = tracer.wrap(tracing.HTTP_STEP, lambda: None, cpu=True)
    with tracer.task_span(0):
        run_task = tracer.wrap(tracing.RUN_TASK, lambda: [
            threading.Thread(target=step) for _ in range(2)
        ])
        workers = run_task()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    names = [span.name for span in tracer.spans]
    assert names == [tracing.TASK, tracing.RUN_TASK, tracing.HTTP_STEP, tracing.HTTP_STEP]
    # run_task has closed, so the workers' spans belong to the task span, and
    # the client thread's stack is empty again.
    assert [span.parent for span in tracer.spans] == [-1, 0, 0, 0]
    with tracer.task_span(1):
        pass
    assert tracer.spans[-1].parent == -1


def test_self_time_counts_overlapping_children_once():
    spans = [
        tracing.Span("p", 0, -1, 0.0, 10.0),
        tracing.Span("a", 0, 0, 1.0, 5.0),
        tracing.Span("b", 0, 0, 2.0, 6.0),
        tracing.Span("c", 0, 0, 8.0, 9.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 4.0, 4.0, 1.0])


def test_accounting_is_measured_not_a_remainder():
    workload = WORKLOADS["synthetic_sweep"]
    plain = run_window(workload, 4, 0.0)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_window(workload, 4, 0.0, tracer=tracer)
    assert traced.own > 0.0
    _, accounted, _ = per_layer(traced, plain, tracer.spans)
    # The loop's own statements between the timed pieces are not counted.
    assert 0.9 < accounted < 1.0


def test_window_runs_past_its_deadline_until_min_tasks():
    window = run_window(WORKLOADS["synthetic_sweep"], 6, 0.0, min_tasks=100)
    assert window.tasks == 100
