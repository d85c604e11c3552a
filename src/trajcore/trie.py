"""Prefix trie over the (state, action) alphabet with success labels."""
from __future__ import annotations

from typing import Iterable, Iterator

from .mdp import (
    DEFAULT_NODE_BUDGET,
    TERMINAL,
    RolloutSet,
    SuccessSet,
    TabularMDP,
    Trajectory,
    enumerate_successes,
)


class TrieNode:
    """One stored prefix: children keyed by the next (state, action) symbol.

    ``y`` is the data-relative success label: 1 iff some stored extension of
    this prefix (including the prefix itself) ends in a terminal goal pair.
    ``count`` is the number of inserted trajectories passing through the node;
    ``end_count`` how many end exactly here.
    """

    __slots__ = ("children", "y", "count", "end_count")

    def __init__(self):
        self.children: dict[tuple[int, int], TrieNode] = {}
        self.y = False
        self.count = 0
        self.end_count = 0

    def sorted_children(self) -> list[tuple[tuple[int, int], "TrieNode"]]:
        return sorted(self.children.items())


class TrajectoryTrie:
    """Immutable-after-build trie of trajectory prefixes."""

    def __init__(self, root: TrieNode, num_inserted: int):
        self.root = root
        self.num_inserted = num_inserted

    def node_count(self) -> int:
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.children.values())
        return total

    def find(self, prefix: Iterable[tuple[int, int]]) -> TrieNode | None:
        node = self.root
        for sym in prefix:
            node = node.children.get(tuple(sym))
            if node is None:
                return None
        return node

    def walk(self) -> Iterator[tuple[tuple[tuple[int, int], ...], TrieNode]]:
        """Depth-first traversal in canonical symbol order."""
        stack: list[tuple[tuple[tuple[int, int], ...], TrieNode]] = [((), self.root)]
        while stack:
            prefix, node = stack.pop()
            yield prefix, node
            for sym, child in reversed(node.sorted_children()):
                stack.append((prefix + (sym,), child))

    def dump(self) -> str:
        """Indented text export: one line per node with prefix, y, count."""
        lines = []
        for prefix, node in self.walk():
            indent = "  " * len(prefix)
            sym = f"({prefix[-1][0]},{prefix[-1][1]})" if prefix else "<root>"
            lines.append(
                f"{indent}{sym} y={int(node.y)} count={node.count} ends={node.end_count}"
            )
        return "\n".join(lines)


def build_trie(rollouts: RolloutSet | SuccessSet | Iterable[Trajectory]) -> TrajectoryTrie:
    """Build the trie of all prefixes of the given trajectories.

    Success labels are computed from the stored data: a node gets y=1 exactly
    when a stored trajectory ending in a terminal goal pair passes through it.
    """
    if isinstance(rollouts, (RolloutSet, SuccessSet)):
        trajectories: Iterable[Trajectory] = rollouts.trajectories
    else:
        trajectories = list(rollouts)
    root = TrieNode()
    inserted = 0
    for traj in trajectories:
        inserted += 1
        root.count += 1
        node = root
        path = [root]
        for sym in traj.pairs():
            child = node.children.get(sym)
            if child is None:
                child = TrieNode()
                node.children[sym] = child
            child.count += 1
            node = child
            path.append(node)
        node.end_count += 1
        if traj.terminated:
            for seen in path:
                seen.y = True
    return TrajectoryTrie(root, inserted)


def successful_leaves(trie: TrajectoryTrie) -> SuccessSet:
    """The stored trajectories that end in a terminal goal pair, as a set."""
    out = []
    for prefix, _node in trie.walk():
        if prefix and prefix[-1][1] == TERMINAL:
            out.append(Trajectory.from_pairs(prefix))
    return SuccessSet.from_iterable(out)


def is_complete(
    trie: TrajectoryTrie, mdp: TabularMDP, node_budget: int = DEFAULT_NODE_BUDGET
) -> bool:
    """True iff the trie's successful leaves equal the MDP's full success set."""
    # both sets are in canonical order, so equal sets are equal tuples
    return successful_leaves(trie) == enumerate_successes(mdp, node_budget=node_budget)
