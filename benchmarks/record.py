"""Record the behaviour digest and accuracy of each workload's first tasks.

    python3 benchmarks/record.py

Writes ``recorded.json``, which every run of ``run.py`` checks against. The
values come from in-process runs; the HTTP workloads use the reference
model, which every run also checks the HTTP path against. Run it only when a
change is meant to alter behaviour, and say so in the change.
"""

from __future__ import annotations

import json

from run import HERE, WORKLOADS, machine_facts, reference_digest

SEEDS = range(32)
TUNING_SEED = 1
HOLDOUT_SEED = 2


def main() -> None:
    recorded = {
        "tuning_seed": TUNING_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "machine": machine_facts(),
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        per_seed = {}
        for seed in SEEDS:
            digest, accuracy = reference_digest(workload, seed)
            per_seed[str(seed)] = {"digest": digest, "accuracy": accuracy}
        recorded["workloads"][name] = per_seed
    (HERE / "recorded.json").write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
