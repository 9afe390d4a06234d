"""Parameters, topology and state containers for SIS dynamics on starlike graphs."""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Per-step retention probability a and per-edge transmission probability b."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ValueError(f"retention probability a must be in (0,1), got {self.a}")
        if not (0.0 < self.b < 1.0):
            raise ValueError(f"transmission probability b must be in (0,1), got {self.b}")


@dataclass(frozen=True)
class StarlikeTopology:
    """A k-level starlike tree: a hub whose level-m nodes each have branching[m-1] children.

    Nodes are numbered breadth-first: the hub is node 0, then each level's
    block follows, children of lower-index parents first.  This ordering is
    part of the external file format and must not change.
    """

    branching: tuple

    def __post_init__(self):
        branching = tuple(int(n) for n in self.branching)
        if len(branching) == 0:
            raise ValueError("branching vector must be non-empty")
        if any(n < 1 for n in branching):
            raise ValueError(f"branching entries must be >= 1, got {branching}")
        object.__setattr__(self, "branching", branching)

    @property
    def k(self) -> int:
        return len(self.branching) + 1

    @cached_property
    def level_sizes(self) -> tuple:
        sizes = [1]
        for n in self.branching:
            sizes.append(sizes[-1] * n)
        return tuple(sizes)

    @cached_property
    def level_offsets(self) -> tuple:
        offs = [0]
        for s in self.level_sizes:
            offs.append(offs[-1] + s)
        return tuple(offs)

    @property
    def node_count(self) -> int:
        return self.level_offsets[-1]

    def level_of(self, node_index: int) -> int:
        """Level (1..k) of a node index in breadth-first order."""
        if not (0 <= node_index < self.node_count):
            raise ValueError(f"node index {node_index} out of range [0, {self.node_count})")
        for m in range(self.k):
            if node_index < self.level_offsets[m + 1]:
                return m + 1
        raise AssertionError("unreachable")

    def parent_of(self, node_index: int) -> int:
        m = self.level_of(node_index)
        if m == 1:
            raise ValueError("the hub has no parent")
        j = node_index - self.level_offsets[m - 1]
        return self.level_offsets[m - 2] + j // self.branching[m - 2]

    @cached_property
    def node_levels(self) -> np.ndarray:
        """Level (1..k) of every node, breadth-first order."""
        return np.repeat(np.arange(1, self.k + 1, dtype=np.intp), self.level_sizes)

    @cached_property
    def edges(self) -> "EdgeArrays":
        """Directed edges sorted by (target, source), with each target's row start.

        Node i's row is its parent (every node but the hub has one) followed by
        its children.  Breadth-first numbering puts the parent below i and the
        children above it, and makes each node's children one block right
        after the previous node's.  So the children, row after row, are nodes
        1..N-1 in order: the child in slot j of row i is j + 1 - i, since rows
        1..i each spent one slot on a parent.  Every row is non-empty because
        k >= 2.  The arrays are shared by every caller and therefore read-only.
        """
        n = self.node_count
        fanout = np.repeat(np.array(self.branching + (0,), dtype=np.intp), self.level_sizes)
        degree = fanout.copy()
        degree[1:] += 1
        starts = np.zeros(n, dtype=np.intp)
        np.cumsum(degree[:-1], out=starts[1:])
        dst = np.repeat(np.arange(n, dtype=np.intp), degree)
        src = np.arange(1, len(dst) + 1, dtype=np.intp) - dst
        src[starts[1:]] = np.repeat(np.arange(n, dtype=np.intp), fanout)
        for arr in (src, dst, starts):
            arr.flags.writeable = False
        return EdgeArrays(src=src, dst=dst, starts=starts)

    @cached_property
    def neighbors(self) -> list:
        """Sorted neighbor index arrays, one per node (views of the edge sources)."""
        return np.split(self.edges.src, self.edges.starts[1:])


class EdgeArrays(NamedTuple):
    """The tree's directed edges in row form: row i holds the edges into node i."""

    src: np.ndarray     # (2(N-1),) source node of each directed edge
    dst: np.ndarray     # (2(N-1),) target node of each directed edge
    starts: np.ndarray  # (N,) index of each target's first edge


def make_topology(branching) -> StarlikeTopology:
    return StarlikeTopology(tuple(branching))


def as_level_state(d, topo: StarlikeTopology) -> np.ndarray:
    """Validate a per-level state vector (length k, entries in [0,1])."""
    d = np.asarray(d, dtype=float)
    if d.shape[-1] != topo.k:
        raise ValueError(f"level state must have length {topo.k}, got shape {d.shape}")
    if not np.all((d >= 0.0) & (d <= 1.0)):  # NaN fails both comparisons
        raise ValueError("level state entries must lie in [0,1]")
    return d


def as_node_state(p, topo: StarlikeTopology) -> np.ndarray:
    """Validate a per-node probability vector (length node_count, entries in [0,1])."""
    p = np.asarray(p, dtype=float)
    if p.shape != (topo.node_count,):
        raise ValueError(f"node state must have shape ({topo.node_count},), got {p.shape}")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both comparisons
        raise ValueError("node state entries must lie in [0,1]")
    return p


def expand_state(d, topo: StarlikeTopology) -> np.ndarray:
    """Per-node probabilities with every level-m node set to d[m-1]."""
    d = as_level_state(d, topo)
    return d[topo.node_levels - 1]


def reduce_state(p, topo: StarlikeTopology) -> np.ndarray:
    """Per-level means of a per-node probability vector."""
    p = as_node_state(p, topo)
    offs = topo.level_offsets
    return np.array([p[offs[m]:offs[m + 1]].mean() for m in range(topo.k)])
