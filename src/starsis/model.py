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


class EdgeArrays(NamedTuple):
    """The tree's directed edges in row form: row i holds the edges into node i."""

    src: np.ndarray     # (2(N-1),) source node of each directed edge
    dst: np.ndarray     # (2(N-1),) target node of each directed edge
    starts: np.ndarray  # (N,) index of each target's first edge


def make_topology(branching) -> StarlikeTopology:
    return StarlikeTopology(tuple(branching))


def _as_state(x, size: int, kind: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != size:
        raise ValueError(f"{kind} state must have shape (..., {size}), got {x.shape}")
    if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails both comparisons
        raise ValueError(f"{kind} state entries must lie in [0,1]")
    return x


def as_level_state(d, topo: StarlikeTopology) -> np.ndarray:
    """Validate per-level probabilities of shape (..., k), entries in [0,1]."""
    return _as_state(d, topo.k, "level")


def as_node_state(p, topo: StarlikeTopology) -> np.ndarray:
    """Validate per-node probabilities of shape (..., node_count), entries in [0,1]."""
    return _as_state(p, topo.node_count, "node")


def expand_state(d, topo: StarlikeTopology) -> np.ndarray:
    """Per-node probabilities (..., N) with every level-m node set to d[..., m-1]."""
    d = as_level_state(d, topo)
    return d[..., topo.node_levels - 1]


def reduce_state(p, topo: StarlikeTopology) -> np.ndarray:
    """Per-level means (..., k) of per-node probabilities (..., N).

    Each level's mean is numpy's pairwise sum along the last axis, which it
    takes only where that axis is contiguous; on any other layout the rows
    would be summed naively and differ in the last bits.  Hence the copy to
    C order, which makes every row bitwise equal to its own 1-D call.
    """
    p = np.ascontiguousarray(as_node_state(p, topo))
    offs = topo.level_offsets
    return np.stack([p[..., offs[m]:offs[m + 1]].mean(axis=-1) for m in range(topo.k)],
                    axis=-1)
