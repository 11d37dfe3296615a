"""Structure tests: mutations, prefix sharing, immutability."""

from __future__ import annotations

import random

import pytest

from helpers import UNIFORM4, make_records
from entroduction.metrics import compute_step_metrics
from entroduction.structure import (
    Chain,
    ChainStatus,
    ReasoningNode,
    create_structure,
)


def make_node(structure, text="a step") -> ReasoningNode:
    return ReasoningNode(
        id=structure.allocate_node_id(),
        text=text,
        metrics=compute_step_metrics(make_records(UNIFORM4)),
    )


def fork_nodes(structure):
    metrics = compute_step_metrics(make_records(UNIFORM4))
    return tuple(
        ReasoningNode(
            id=structure.allocate_node_id(),
            text=f"branch {side}",
            metrics=metrics,
        )
        for side in ("a", "b")
    )


class TestCreate:
    def test_fresh_structure(self):
        s = create_structure("2+2?")
        assert len(s.chains) == 1
        assert s.chains[0].status is ChainStatus.ACTIVE
        assert s.depth() == 0

    def test_budget_one(self):
        # A fresh structure holds one chain: a chain budget of one is already met.
        assert len(create_structure("q").chains) == 1

    def test_empty_task_rejected(self):
        with pytest.raises(ValueError, match="empty task"):
            create_structure("")

    @pytest.mark.parametrize("task", [" ", "\t\n  "])
    def test_blank_task_rejected(self, task):
        with pytest.raises(ValueError, match="empty task"):
            create_structure(task)


class TestDeepen:
    def test_appends(self):
        s = create_structure("q")
        chain = s.chains[0]
        chain.deepen(make_node(s))
        chain.deepen(make_node(s))
        assert len(chain) == 2
        assert [n.id for n in chain.nodes] == [0, 1]

    def test_first_node(self):
        s = create_structure("q")
        chain = s.chains[0]
        chain.deepen(make_node(s))
        assert len(chain) == 1

    def test_finalized_rejects_append(self):
        s = create_structure("q")
        chain = s.chains[0]
        node = make_node(s)
        chain.finalize()
        with pytest.raises(ValueError, match="chain finalized"):
            chain.deepen(node)


class TestExpand:
    def test_shares_prefix_by_identity(self):
        s = create_structure("q")
        chain = s.chains[0]
        chain.deepen(make_node(s, "n1"))
        chain.deepen(make_node(s, "n2"))
        node_a, node_b = fork_nodes(s)
        new_id = s.expand(chain, node_a, node_b)
        assert new_id == 1
        sibling = s.chains[1]
        assert chain.nodes[-1] is node_a
        assert sibling.nodes[-1] is node_b
        assert sibling.parent == (chain.id, 2)
        for left, right in zip(chain.nodes[:2], sibling.nodes[:2]):
            assert left is right

    def test_budget_degrades_to_deepen(self):
        # At the chain budget the engine deepens with the step it drew: the
        # chain grows and no chain is added.
        s = create_structure("q")
        chain = s.chains[0]
        chain.deepen(make_node(s))
        node_a, _ = fork_nodes(s)
        chain.deepen(node_a)
        assert s.chains == [chain]
        assert chain.nodes[-1] is node_a
        assert chain.status is ChainStatus.ACTIVE

    def test_expand_empty_chain(self):
        s = create_structure("q")
        chain = s.chains[0]
        node_a, node_b = fork_nodes(s)
        new_id = s.expand(chain, node_a, node_b)
        assert new_id is not None
        assert len(s.chains[0]) == 1 and len(s.chains[1]) == 1
        assert s.chains[1].parent == (0, 0)

    def test_expand_requires_active(self):
        s = create_structure("q")
        chain = s.chains[0]
        chain.deepen(make_node(s))
        nodes = list(chain.nodes)
        node_a, node_b = fork_nodes(s)
        chain.finalize()
        with pytest.raises(ValueError, match="chain finalized"):
            s.expand(chain, node_a, node_b)
        assert s.chains == [chain]
        assert chain.nodes == nodes
        assert chain.status is ChainStatus.FINALIZED


class TestFinalize:
    def test_finalize_then_deepen_errors(self):
        s = create_structure("q")
        chain = s.chains[0]
        chain.finalize()
        assert chain.status is ChainStatus.FINALIZED
        with pytest.raises(ValueError, match="chain finalized"):
            chain.deepen(make_node(s))

    def test_idempotent(self):
        chain = Chain(id=0)
        chain.finalize()
        chain.finalize()
        assert chain.status is ChainStatus.FINALIZED


class TestDepth:
    def test_max_of_lengths(self):
        s = create_structure("q")
        lengths = [3, 5, 2]
        chain = s.chains[0]
        for _ in range(lengths[0]):
            chain.deepen(make_node(s))
        node_a, node_b = fork_nodes(s)
        s.expand(chain, node_a, node_b)
        second = s.chains[1]
        while len(second) < lengths[1]:
            second.deepen(make_node(s))
        assert s.depth() == 5

    def test_fresh_is_zero(self):
        assert create_structure("q").depth() == 0

    def test_expand_increments_depth(self):
        s = create_structure("q")
        chain = s.chains[0]
        for _ in range(4):
            chain.deepen(make_node(s))
        node_a, node_b = fork_nodes(s)
        s.expand(chain, node_a, node_b)
        assert s.depth() == 5


class TestRandomizedInvariants:
    def test_operation_sequences(self):
        rng = random.Random(1234)
        for trial in range(60):
            max_chains = rng.randint(1, 6)
            s = create_structure(f"task {trial}")
            depth_seen = 0
            frozen: dict[int, tuple[int, ...]] = {}
            for _ in range(rng.randint(1, 40)):
                live = [c for c in s.chains if not c.finalized]
                if not live:
                    break
                chain = rng.choice(live)
                op = rng.random()
                if op < 0.55:
                    chain.deepen(make_node(s))
                elif op < 0.85:
                    # As the engine does: an expand at the budget is a deepen.
                    if len(s.chains) >= max_chains:
                        chain.deepen(make_node(s))
                    else:
                        node_a, node_b = fork_nodes(s)
                        s.expand(chain, node_a, node_b)
                else:
                    chain.finalize()
                    frozen[chain.id] = tuple(n.id for n in chain.nodes)

                assert len(s.chains) <= max_chains
                assert s.depth() >= depth_seen
                depth_seen = s.depth()
                for c in s.chains:
                    if c.parent is not None:
                        parent_chain = s.chains[c.parent[0]]
                        shared = c.parent[1]
                        assert len(c.nodes) >= shared
                        for i in range(shared):
                            assert c.nodes[i] is parent_chain.nodes[i]
                for chain_id, node_ids in frozen.items():
                    assert tuple(n.id for n in s.chains[chain_id].nodes) == node_ids
