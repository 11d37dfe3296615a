"""The reasoning structure: chains of sentence-level nodes.

A structure starts as a single empty chain and grows by three mutations:
deepen (append a node to a chain), expand (fork a chain into two chains that
share their prefix by node identity), and finalize (permanently stop a
chain). The structure only records them: when to apply each, the chain
budget and the soft-stop grace are the engine's rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .metrics import StepMetrics

__all__ = [
    "ChainStatus",
    "ReasoningNode",
    "Chain",
    "ReasoningStructure",
    "create_structure",
]


class ChainStatus(enum.Enum):
    ACTIVE = "active"
    FINALIZED = "finalized"


@dataclass(frozen=True)
class ReasoningNode:
    """One sentence-level reasoning step inside a chain."""

    id: int
    text: str
    metrics: StepMetrics


@dataclass
class Chain:
    """An ordered sequence of reasoning nodes with a lifecycle status.

    ``parent`` records an expand origin as (parent chain id, shared prefix
    length). A chain keeps no count of its soft-stop grace: the engine does.
    """

    id: int
    nodes: list[ReasoningNode] = field(default_factory=list)
    status: ChainStatus = ChainStatus.ACTIVE
    parent: tuple[int, int] | None = None
    final_answer: str | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def finalized(self) -> bool:
        return self.status is ChainStatus.FINALIZED

    def node_texts(self) -> list[str]:
        return [node.text for node in self.nodes]

    def deepen(self, node: ReasoningNode) -> None:
        """Append the next node; a finalized chain raises ValueError."""
        if self.finalized:
            raise ValueError("chain finalized")
        self.nodes.append(node)

    def finalize(self) -> None:
        """Permanently stop this chain; idempotent."""
        self.status = ChainStatus.FINALIZED

    def mean_normalized_entropy(self) -> float:
        """Mean normalized step entropy over this chain's nodes; 0 if empty."""
        if not self.nodes:
            return 0.0
        return sum(n.metrics.normalized_entropy for n in self.nodes) / len(self.nodes)


@dataclass
class ReasoningStructure:
    """All chains built for one task, as recorded; the engine keeps their
    count within its chain budget.

    ``nodes_allocated`` counts the node ids handed out, attached or not.
    """

    task: str
    chains: list[Chain] = field(default_factory=list)
    nodes_allocated: int = 0

    def allocate_node_id(self) -> int:
        self.nodes_allocated += 1
        return self.nodes_allocated - 1

    def _allocate_chain(self, parent: tuple[int, int] | None = None) -> Chain:
        chain = Chain(id=len(self.chains), parent=parent)
        self.chains.append(chain)
        return chain

    def unfinished_chains(self) -> list[Chain]:
        """Chains not yet finalized, in ascending id order."""
        return [c for c in self.chains if not c.finalized]

    def depth(self) -> int:
        """Length of the longest chain; 0 for a fresh structure."""
        if not self.chains:
            return 0
        return max(len(chain) for chain in self.chains)

    def total_nodes(self) -> int:
        """Count of distinct nodes across all chains (shared prefixes once)."""
        seen: set[int] = set()
        for chain in self.chains:
            seen.update(node.id for node in chain.nodes)
        return len(seen)

    def expand(self, chain: Chain, node_a: ReasoningNode, node_b: ReasoningNode) -> int:
        """Fork ``chain``: it receives ``node_a``; a new chain gets the shared
        prefix plus ``node_b``. Returns the new chain's id. A finalized
        ``chain`` raises ValueError and changes nothing; whether the budget
        allows a fork is the engine's call.
        """
        prefix = list(chain.nodes)
        chain.deepen(node_a)
        sibling = self._allocate_chain(parent=(chain.id, len(prefix)))
        sibling.nodes = prefix + [node_b]
        return sibling.id


def create_structure(task: str) -> ReasoningStructure:
    """A fresh structure with one active, empty chain; the task must not be
    blank."""
    if not task.strip():
        raise ValueError("empty task")
    structure = ReasoningStructure(task=task)
    structure._allocate_chain()
    return structure
