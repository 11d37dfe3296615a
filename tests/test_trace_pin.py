"""Pinned end-to-end traces: every branch of the control loop, recorded once.

Each scenario runs the engine on a synthetic or scripted backend and compares
the full exported trace, the per-chain outcome, the conclusion and the call
counts against ``data/pinned_traces.json``. Non-float values must match
exactly; floats to 1e-12, so a different libm cannot fail the pin while a
changed branch can.

Re-record (only when a behaviour change is intended):

    PYTHONPATH=src python tests/test_trace_pin.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from helpers import A30, EXPAND_SCHEDULE, P22, STOP_SCHEDULE, UNIFORM4, make_step
from entroduction.backends import ScriptedBackend, SyntheticBackend, SyntheticStep
from entroduction.engine import RunConfig, RunResult, run_task
from entroduction.harness import trace_event_to_dict
from entroduction.policy import PolicyConfig

PINNED = Path(__file__).resolve().parent / "data" / "pinned_traces.json"


def _schedule(rows, texts=None) -> list[SyntheticStep]:
    texts = texts or {}
    return [
        SyntheticStep(logprobs=tuple(row), text=texts.get(i)) for i, row in enumerate(rows)
    ]


def _config(stop_k=1, epsilon=0.0, seed=0, **kwargs) -> RunConfig:
    policy = PolicyConfig(epsilon=epsilon, stop_k=stop_k, seed=seed)
    return RunConfig(policy=policy, **kwargs)


def _seeded_schedule() -> list[SyntheticStep]:
    targets = (0.9, 0.6, 0.8, 0.4, 0.7, 0.3, 0.85, 0.5, 0.2)
    steps = [SyntheticStep(target_normalized_entropy=t, n_tokens=8) for t in targets]
    steps[6] = SyntheticStep(
        target_normalized_entropy=0.85, n_tokens=8, text="So the answer is 12"
    )
    return steps


def _scenarios():
    """(name, task runner) for every branch the engine can take."""
    return {
        # Stop at step 3 with a grace of two forced steps, no answer anywhere;
        # the elicitation reply states an answer.
        "soft_stop_grace_exhausted": lambda: run_task(
            "q", _config(stop_k=3, max_steps=8),
            SyntheticBackend(_schedule(
                STOP_SCHEDULE + (UNIFORM4, UNIFORM4, A30),
                {5: "Therefore the answer is 7"},
            )),
        ),
        # The first grace step states an answer while one grace step remains.
        "answer_during_grace": lambda: run_task(
            "q", _config(stop_k=3, max_steps=8),
            SyntheticBackend(_schedule(
                STOP_SCHEDULE + (UNIFORM4,), {3: "The answer is 5"},
            )),
        ),
        # Hard stop; the elicitation reply has no marker, so its text is the answer.
        "hard_stop_elicit_plain": lambda: run_task(
            "q", _config(stop_k=1, max_steps=8),
            SyntheticBackend(_schedule(STOP_SCHEDULE + (A30,), {3: "  forty two  "})),
        ),
        # Expand at step 3 whose sibling states an answer; the parent goes on.
        "expand_sibling_answer": lambda: run_task(
            "q", _config(max_steps=5, max_chains=4),
            ScriptedBackend([
                make_step("first step", A30),
                make_step("second step", UNIFORM4),
                make_step("branch a", P22),
                make_step("The answer is 3", P22),
                make_step("deeper a", A30),
                make_step("The answer is 4", A30),
            ]),
        ),
        # Expand sampled at the chain budget runs as a deepen, no sibling call.
        "expand_degraded": lambda: run_task(
            "q", _config(max_steps=4, max_chains=1),
            SyntheticBackend(_schedule(EXPAND_SCHEDULE + (A30,))),
        ),
        # An answer at step 3 preempts a sampled Stop.
        "answer_preempts_stop": lambda: run_task(
            "q", _config(stop_k=2, max_steps=6),
            SyntheticBackend(_schedule(STOP_SCHEDULE, {2: "The answer is 8"})),
        ),
        # An answer at step 3 preempts a sampled Expand.
        "answer_preempts_expand": lambda: run_task(
            "q", _config(max_steps=6),
            SyntheticBackend(_schedule(EXPAND_SCHEDULE, {2: "The answer is 9"})),
        ),
        # Epsilon-greedy runs over entropy targets: mixed branches, a chain
        # budget that binds, an answer at depth 7, elicitation for the rest.
        **{
            f"seeded_eps_{seed}": (lambda seed=seed: run_task(
                "q", _config(stop_k=2, epsilon=0.9, seed=seed, max_steps=10, max_chains=4),
                SyntheticBackend(_seeded_schedule()),
            ))
            for seed in (0, 6, 9)
        },
    }


def snapshot(result: RunResult) -> dict:
    return {
        "trace": [trace_event_to_dict(event) for event in result.trace],
        "chains": [
            {
                "id": chain.id,
                "length": len(chain.nodes),
                "node_ids": [node.id for node in chain.nodes],
                "status": chain.status.value,
                "parent": list(chain.parent) if chain.parent else None,
                "final_answer": chain.final_answer,
            }
            for chain in result.structure.chains
        ],
        "conclusion": result.conclusion,
        "total_steps": result.total_steps,
        "conclusion_calls": result.conclusion_calls,
        "aborted": result.aborted,
    }


def assert_matches(actual, expected, path="") -> None:
    if isinstance(expected, float) or isinstance(actual, float):
        assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12), path
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for index, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{index}]")
    else:
        assert actual == expected, path


def _pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_trace_matches_pin(name):
    actual = json.loads(json.dumps(snapshot(_scenarios()[name]())))
    assert_matches(actual, _pinned()[name], name)


def test_pins_cover_every_branch():
    rows = [row for pin in _pinned().values() for row in pin["trace"]]
    reasons = {row["finalize_reason"] for row in rows}
    assert {"stop", "stop_grace_exhausted", "answer_marker"} <= reasons
    # Answer with grace still pending.
    assert any(
        row["finalize_reason"] == "answer_marker" and row["stop_pending_remaining"]
        for row in rows
    )
    # Sibling event of an expand that states an answer.
    assert any(
        row["executed"] == "expand" and row["dH"] is None
        and row["finalize_reason"] == "answer_marker"
        for row in rows
    )
    # Sampled Expand/Stop executed as deepen: budget degrade and answer preempt.
    remapped = [
        row for row in rows
        if row["sampled_action"] in ("expand", "stop") and row["executed"] == "deepen"
    ]
    assert any(row["finalize_reason"] == "answer_marker" for row in remapped)
    assert any(row["finalize_reason"] is None for row in remapped)
    assert sum(pin["conclusion_calls"] for pin in _pinned().values()) > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    PINNED.parent.mkdir(exist_ok=True)
    pins = {name: snapshot(run()) for name, run in sorted(_scenarios().items())}
    PINNED.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} scenarios to {PINNED}")
