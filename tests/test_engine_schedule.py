"""Drawn adaptive runs give one result in any schedule.

Each example draws a policy, the run's budgets, a backend that answers by
(request, occurrence) and at most one failing call. The run is then made
with the backend called serially and with four calls in flight, and both
must give the same snapshot. The serial reference run, with no failure,
makes exactly one call per node and per answer elicitation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from test_concurrency import KeyedBackend, PairedBackend, worker_threads
from test_trace_pin import snapshot
from entroduction.engine import RunConfig, run_task
from entroduction.policy import MetricMode, PolicyConfig

policies = st.builds(
    PolicyConfig,
    epsilon=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    stop_k=st.integers(1, 3),
    metric_mode=st.sampled_from(MetricMode),
    expand_enabled=st.booleans(),
    seed=st.integers(0, 2**16),
)
configs = st.builds(
    RunConfig,
    max_steps=st.integers(1, 10),
    max_chains=st.integers(1, 6),
    policy=policies,
    elicit_final_answer=st.booleans(),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(config=configs, backend_type=st.sampled_from([KeyedBackend, PairedBackend]),
       data=st.data())
def test_one_result_in_any_schedule(config, backend_type, data):
    reference = backend_type(1, jitter_s=0.0)
    serial = run_task("q", config, reference)
    assert not serial.aborted
    assert len(reference.calls) == serial.total_steps + serial.conclusion_calls
    position = data.draw(st.none() | st.integers(0, len(reference.calls) - 1), "failing call")
    fail_on = None if position is None else reference.calls[position]
    jitter_seed = data.draw(st.integers(0, 3), "jitter seed")
    outcomes = [
        run_task("q", config, backend_type(1, jitter_s=0.0, fail_on=fail_on)),
        run_task("q", config, backend_type(4, jitter_s=0.001, fail_on=fail_on,
                                           seed=jitter_seed)),
    ]
    assert snapshot(outcomes[1]) == snapshot(outcomes[0])
    if fail_on is not None:
        # Every call before the failing one, and only those, was committed.
        assert outcomes[0].aborted
        assert outcomes[0].total_steps + outcomes[0].conclusion_calls == position
    else:
        assert snapshot(outcomes[0]) == snapshot(serial)
    assert worker_threads() == []
