"""Immutable graph representation and the algorithmic substrate.

Everything downstream (metric families, group selection, attack
simulation) builds on the primitives here: the batched shortest-path
engine, connected components, unit-capacity max flow on csgraph's
Edmonds-Karp, and the linear-algebra layer.

A `Graph` is read-only compressed rows (CSR arrays) of out- and
in-neighbours. `build_graph` reads any iterable of edges once, checking
each edge as it reads it and naming the first malformed one; it interns
the labels in a dict as it goes and streams the ids into an int32 array.
Its edge loop (`_edge_ids`) and its tail (`_labelled_graph`: labels and
coordinates, then `_from_arcs`) serve the chunked parse of `io` too.
`_from_arcs` builds both row sets with one sort and frees each temporary
once read: self-loops dropped, duplicates collapsed to their first
occurrence, each row sorted by neighbour id.
`Graph.adjacency` wraps the out-rows, without a copy, as a scipy.sparse
operator, which `components` (through scipy.sparse.csgraph) and the
metrics read. `Graph.adj`, the out-rows as tuples, is derived only when
read; no metric reads it.

`traverse` runs shortest paths from a block of sources at a time. On
unit weights, while the search stays shallow, it is a level-synchronous
BFS of sparse x dense-block products that keeps one bool mask per level:
predecessors are counted with one product per level, and the backward
sweep and, on first read, the distances come from the masks. Otherwise
scipy's Dijkstra gives the distances, and the shortest-path DAG (arcs
whose d(u) + w ties d(v) under `TIE_RTOL`), ordered by distance, turns
path counts and the backward sweep into sparse triangular solves, at a
cost that does not grow with the depth. Both give distances and float64
path counts (sigma) as (n, b) arrays, and one backward sweep over the
DAG that Brandes dependencies and Goh's load reduce over;
`shortest_paths` and `all_distances` (a dense array, behind
`require_dense`) are calls of it. `cut_blocks` cuts the blocks of the
`neighborhoods` kernels from the same budget that sizes traverse's.
`fixed_point` is the one loop that iterates a step map until successive
iterates agree in the sup norm; `power_iteration` runs it with an
L2-normalising step. Dense solves and eigendecompositions pass
`require_dense` before they allocate.
"""

from __future__ import annotations

import json
import math
import warnings
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components, dijkstra, \
    maximum_flow
from scipy.sparse.linalg import spsolve_triangular

from .errors import (
    ConvergenceError,
    GraphInputError,
    SingularMatrixError,
    SizeCapError,
)

INF = math.inf

# Dense solves and eigendecompositions refuse anything bigger than this.
DENSE_CAP = 5000


class CSR(NamedTuple):
    """Read-only compressed rows: row v lists v's neighbours,
    indices[indptr[v]:indptr[v + 1]], in ascending order, with their
    weights at the same positions; degrees[v] is the row's length."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray

    def row(self, v: int) -> list[int]:
        return self.indices[self.indptr[v]:self.indptr[v + 1]].tolist()


def _csr(n: int, keys, weights) -> CSR:
    """The rows of the arcs keyed tail * n + head by `keys`, distinct and
    ascending, with their weights: row v, sorted by head, ends where the
    keys pass (v + 1) * n. `keys` is overwritten with the heads. Index
    arrays are int32 when they fit, the type scipy.sparse would give
    them, so that `Graph.adjacency` wraps them as they are."""
    itype = np.int32 if max(n, keys.size) < 2**31 else np.int64
    bounds = keys.searchsorted(np.arange(n + 1) * n)
    heads = np.remainder(keys, n, out=keys).astype(itype)
    rows = CSR(bounds.astype(itype), heads, weights, bounds[1:] - bounds[:-1])
    for arr in rows:
        arr.flags.writeable = False
    return rows


def row_positions(indptr, rows) -> np.ndarray:
    """Positions of the entries of `rows` in a CSR index array, row
    after row in the order given."""
    lens = indptr[rows + 1] - indptr[rows]
    return np.repeat(indptr[rows] - np.cumsum(lens) + lens, lens) + \
        np.arange(lens.sum())


def _tuple_rows(rows: CSR) -> tuple:
    """Each row as a tuple of (neighbour, weight) pairs."""
    pairs = list(zip(rows.indices.tolist(), rows.weights.tolist()))
    ends = rows.indptr.tolist()
    return tuple(tuple(pairs[a:b]) for a, b in zip(ends, ends[1:]))


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable graph with dense integer node ids, held as read-only
    compressed rows.

    Node ids are 0..n-1, assigned in first-appearance order of the input
    edge list. `out_csr` holds each node's out-neighbours and `in_csr`
    its in-neighbours; when undirected they are one object, which stores
    every edge both ways. Rows are sorted by neighbour id, so a sum over
    a row always runs in one order. Weights are strictly positive;
    self-loops and duplicate edges were dropped at build time (counted).
    The accessors, `adjacency()` and `undirected_adjacency` read the
    rows.

    `adj` gives the out-rows as tuples of (neighbour, weight) pairs,
    derived on first read (`reversed.adj` gives the in-rows). Only the
    tests, their oracles and the benchmark harness's arc count read it.

    `_labels` holds the labels: None when the ids are the labels, a tuple
    in id order, or, for a file that `io` reads wholly in integer mode,
    the read-only int32 label values in id order, each label the str of
    its value. `labels` and `_label_to_id` are built on first read.
    """

    n: int
    directed: bool
    out_csr: CSR
    in_csr: CSR           # the same object as out_csr when undirected
    coords: tuple | None = None
    self_loops_dropped: int = 0
    duplicates_collapsed: int = 0
    _labels: tuple | np.ndarray | None = field(default=None, repr=False)

    # -- basic accessors ------------------------------------------------

    @property
    def m(self) -> int:
        """Edge count: undirected edges, or arcs when directed."""
        arcs = self.out_csr.indices.size
        return arcs if self.directed else arcs // 2

    def neighbors(self, v: int) -> list[int]:
        return self.out_csr.row(v)

    def degree(self, v: int) -> int:
        """Total degree: in+out for directed graphs."""
        return int(self.degree_array[v])

    def all_neighbors(self, v: int) -> list[int]:
        """Neighbors ignoring direction (sorted, deduplicated)."""
        sym = self.undirected_adjacency
        return sym.indices[sym.indptr[v]:sym.indptr[v + 1]].tolist()

    def degrees(self) -> list[int]:
        return self.degree_array.tolist()

    @cached_property
    def degree_array(self) -> np.ndarray:
        """Read-only total degree of every node: in+out when directed."""
        if not self.directed:
            return self.out_csr.degrees
        total = self.out_csr.degrees + self.in_csr.degrees
        total.flags.writeable = False
        return total

    @cached_property
    def adj(self) -> tuple:
        """adj[v]: v's out-neighbours as (neighbour, weight) pairs,
        sorted by neighbour; derived from `out_csr` on first read."""
        return _tuple_rows(self.out_csr)

    @property
    def unit_weights(self) -> bool:
        """True when every weight is 1."""
        return self.adjacency(True) is self.adjacency(False)

    @cached_property
    def labels(self) -> tuple | None:
        """The labels in id order; None when the ids are the labels."""
        if isinstance(self._labels, np.ndarray):
            return tuple(map(str, self._labels.tolist()))
        return self._labels

    @cached_property
    def _label_to_id(self) -> dict:
        return dict(zip(self.labels or (), range(self.n)))

    def label_of(self, v: int):
        if not 0 <= v < self.n:
            raise IndexError(f"node id {v} is not in [0, {self.n})")
        if isinstance(self._labels, np.ndarray):
            return str(self._labels[v])
        return v if self._labels is None else self._labels[v]

    def id_of(self, label) -> int:
        """The id of the node labelled `label`; KeyError if none is."""
        if self._labels is None and isinstance(label, (int, np.integer)) \
                and not isinstance(label, bool) and 0 <= label < self.n:
            return int(label)
        return self._label_to_id[label]

    def adjacency(self, weighted: bool = True) -> scipy.sparse.csr_matrix:
        """Sparse adjacency, built once and read-only: A[u, v] = w for an
        arc u->v (1 when not `weighted`); symmetric when undirected."""
        a, unit = self._operators
        return a if weighted else unit

    @cached_property
    def _operators(self) -> tuple:
        """(weighted, unit-weight) CSR operators on `out_csr`'s arrays.
        The second shares the first's index arrays, and is the first
        when all weights are 1."""
        rows, shape = self.out_csr, (self.n, self.n)
        a = scipy.sparse.csr_matrix(
            (rows.weights, rows.indices, rows.indptr), shape=shape)
        if np.all(rows.weights == 1.0):
            return a, a
        ones = np.ones(rows.weights.size)
        ones.flags.writeable = False
        return a, scipy.sparse.csr_matrix((ones, rows.indices, rows.indptr),
                                          shape=shape)

    @cached_property
    def _unit_capacities(self) -> scipy.sparse.csr_array:
        """int32 operator with capacity 1 on every arc, for csgraph's
        max flow, which needs index arrays it may write."""
        rows = self.out_csr
        return scipy.sparse.csr_array(
            (np.ones(rows.indices.size, dtype=np.int32),
             rows.indices.copy(), rows.indptr.copy()), shape=(self.n, self.n))

    @cached_property
    def undirected_adjacency(self) -> scipy.sparse.csr_matrix:
        """Read-only 0/1 CSR operator of `all_neighbors`: the adjacency
        with direction ignored; `adjacency(False)` itself when
        undirected."""
        a = self.adjacency(False)
        if not self.directed:
            return a
        sym = (a + a.T).tocsr()
        sym.data[:] = 1.0
        sym.sort_indices()
        for arr in (sym.data, sym.indices, sym.indptr):
            arr.flags.writeable = False
        return sym

    @cached_property
    def _edges(self) -> tuple:
        """(row of each entry, upper triangle): each undirected edge once."""
        a = self.undirected_adjacency
        rows = np.arange(self.n, dtype=a.indices.dtype)
        upper = _kept(a, a.indices > np.repeat(rows, np.diff(a.indptr)))
        return np.repeat(rows, np.diff(upper.indptr)), upper

    @cached_property
    def arc_tails(self) -> np.ndarray:
        """Tail node of every arc of `adjacency()`, in storage order."""
        return np.repeat(np.arange(self.n), self.out_csr.degrees)

    @cached_property
    def reversed(self) -> Graph:
        """The graph with every arc turned around (itself when
        undirected)."""
        if not self.directed:
            return self
        return replace(self, out_csr=self.in_csr, in_csr=self.out_csr)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense weighted adjacency; A[u][v] = w for an arc u->v."""
        require_dense(self.n, "dense adjacency")
        return self.adjacency().toarray()


def require_dense(n: int, what: str):
    """Refuse an n x n dense computation beyond DENSE_CAP."""
    if n > DENSE_CAP:
        raise SizeCapError(f"{what}: order {n} exceeds the dense cap "
                           f"{DENSE_CAP}")


def build_graph(edges, directed: bool = False, isolated=(),
                coordinates=None) -> Graph:
    """Construct a Graph from (u, v) or (u, v, weight) edges.

    `edges` may be any iterable, a list or a one-shot generator; it is
    read once. Endpoint labels may be any hashable token; dense ids are
    assigned in first-appearance order. Self-loops are dropped
    (counted), duplicate edges collapse to the first occurrence
    (counted). `isolated` declares extra nodes with no edges.
    `coordinates` maps label -> (x, y). Each edge is checked as it is
    read: the first malformed one raises GraphInputError naming its
    index, while an error raised by the iterator itself passes through
    unchanged. The ids stream into an int32 array (n < 2**31) and the
    weights into a float64 one, which `_from_arcs` reads as they are.
    """
    label_to_id: dict = {}
    weights = array("d")
    ids = np.fromiter(_edge_ids(edges, label_to_id, weights), np.int32)
    for lbl in isolated:
        try:
            label_to_id.setdefault(lbl, len(label_to_id))
        except TypeError as exc:
            raise GraphInputError(
                f"isolated node {lbl!r}: labels must be hashable") from exc
    return _labelled_graph(label_to_id, ids, np.frombuffer(weights),
                           directed, coordinates)


def _edge_ids(edges, label_to_id: dict, weights):
    """The tail and head ids of each edge in turn, checked as
    `build_graph` checks them; new labels are interned in `label_to_id`
    and each weight is appended to `weights`."""
    intern = label_to_id.setdefault
    for idx, e in enumerate(edges):
        try:
            width = len(e)
            w = 1.0 if width == 2 else float(e[2])
            tail = intern(e[0], len(label_to_id))
            head = intern(e[1], len(label_to_id))
        except (TypeError, ValueError, IndexError, KeyError,
                OverflowError) as exc:
            raise _malformed(idx, e) from exc
        if width not in (2, 3) or not 0.0 < w < INF:
            raise _malformed(idx, e)
        weights.append(w)
        yield tail
        yield head


def _labelled_graph(labels, ids, weights, directed: bool,
                    coordinates=None) -> Graph:
    """The Graph of the edges whose ends `ids` holds (tail, head, ...),
    interned by the label map `labels` or numbered by the integer mode's
    int32 label values in id order, which the Graph keeps as they are."""
    n = len(labels)
    if isinstance(labels, np.ndarray):
        labels.flags.writeable = False
        held = labels
        if coordinates is not None:     # named by their decimal strs
            labels = map(str, labels.tolist())
    else:
        held = labels = tuple(labels)
        if all(lbl == i for i, lbl in enumerate(labels)):
            held = None
    coords = None if coordinates is None else _coords(coordinates, labels)
    return _from_arcs(n, directed, ids[0::2], ids[1::2], weights,
                      coords=coords, _labels=held)


def _malformed(idx: int, e) -> GraphInputError:
    return GraphInputError(
        f"edge {idx}: expected (u, v) or (u, v, weight) with hashable "
        f"labels and a positive weight, got {e!r}")


def _coords(coordinates, labels) -> tuple:
    """The (x, y) floats of each label, in the order of `labels`."""
    out = []
    for lbl in labels:
        try:
            out.append(tuple(map(float, coordinates[lbl])))
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphInputError(
                f"node {lbl!r}: no numeric (x, y) coordinates") from exc
    return tuple(out)


def _from_arcs(n: int, directed: bool, tails, heads, weights,
               **fields) -> Graph:
    """The Graph of the arcs tails -> heads (edges, when undirected),
    with self-loops dropped and duplicates collapsed to their first
    occurrence, both counted. The ends may be int32 or int64 arrays.

    One quicksort of int64 keys builds both row sets: arc i is keyed
    tail * n + head, and again head * n + tail, raised past every first
    key when directed (the in-rows); a self-loop's keys are -1. Each
    temporary is freed once read: the unsorted keys once gathered in
    order; the sort's permutation once cut to int32 arc numbers; the
    sorted keys once their distinct values are taken; the arc numbers
    once each run's least one, its first occurrence, is taken; and that
    once its weight is gathered. No key, sort or copy is made per row set.
    """
    m = tails.size
    key = np.array((tails, heads), dtype=np.int64)
    key *= n
    key += (heads, tails)
    if directed:
        key[1] += n * n
    key[:, tails == heads] = -1
    loops = int(np.count_nonzero(key[0] == -1))
    perm = key.ravel().argsort()
    key = key.ravel()[perm]
    arc = np.remainder(perm, m, out=perm).astype(
        np.int32 if m < 2**31 else np.int64)
    del perm
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    keys = key[new]
    del key
    first = np.minimum.reduceat(arc, new.nonzero()[0])
    del arc, new
    keys, first = keys[loops > 0:], first[loops > 0:]
    w, half = weights[first], keys.size // 2
    del first
    if directed:
        out = _csr(n, keys[:half], w[:half])
        keys[half:] -= n * n
        inn = _csr(n, keys[half:], w[half:])
    else:
        out = inn = _csr(n, keys, w)
    return Graph(n=n, directed=directed, out_csr=out, in_csr=inn,
                 self_loops_dropped=loops,
                 duplicates_collapsed=m - loops - half, **fields)


# -- shortest paths -----------------------------------------------------

# Relative tolerance under which two path lengths count as equal: sums
# of a few thousand float64 terms stay within it of their exact value.
TIE_RTOL = 1e-12

# A block holds about this many entries per temporary: a traversal
# block of b sources has (n, b) and (arcs, b) ones, so b =
# _BLOCK_ENTRIES // max(n, arcs).
_BLOCK_ENTRIES = 1 << 17


def cut_blocks(costs, share: int = 1) -> list[slice]:
    """Consecutive slices of range(len(costs)), cut where the running sum
    of `costs` passes a multiple of _BLOCK_ENTRIES // share."""
    step = np.cumsum(costs) // max(1, _BLOCK_ENTRIES // share)
    ends = [0, *(np.flatnonzero(np.diff(step)) + 1).tolist(), len(costs)]
    return [slice(a, b) for a, b in zip(ends, ends[1:])]

# The level sweep stops at this many levels and hands the block, and
# every later one, to the distance-ordered sweep: each level costs a
# full-width pass, while the distance-ordered sweep costs about as much
# as this many of them whatever the depth.
_MAX_LEVELS = 32


def reciprocal(x):
    """1/x where x is non-zero, 0 elsewhere."""
    return np.divide(1.0, x, out=np.zeros_like(x), where=x != 0)


class Traversal:
    """Shortest paths from one block of b sources, as (n, b) arrays in
    which column j belongs to `sources[j]`: `dist` (inf where a node is
    unreachable or beyond the cap) and `sigma`, the geodesic counts in
    float64, exact below 2**53."""

    sources: np.ndarray
    dist: np.ndarray
    sigma: np.ndarray

    def pred_count(self) -> np.ndarray:
        """Number of shortest-path DAG predecessors of every node."""
        raise NotImplementedError

    def accumulate(self, left, right) -> np.ndarray:
        """The backward sweep x(v) = left(v) * sum over DAG successors w
        of right(w) * (1 + x(w)); 0 at the sources. Brandes dependencies
        take left = sigma, right = 1/sigma; Goh's load takes left = 1,
        right = 1/pred_count."""
        raise NotImplementedError

    def reach(self):
        """Per source: other nodes reached, their distance sum and max."""
        d = np.where(self.dist < INF, self.dist, 0.0)
        return (self.dist < INF).sum(axis=0) - 1, d.sum(axis=0), d.max(axis=0)


class _LevelSweep(Traversal):
    """Unit weights: a level-synchronous BFS of sparse x dense-block
    products, where the DAG arcs are the arcs from level l-1 to l.
    `masks[l]` is level l as a bool (n, b) array, at most _MAX_LEVELS + 1
    bytes per entry (4.3 MB at the _BLOCK_ENTRIES budget); predecessor
    counts, one product per level, the backward sweep and `dist`, built
    on first read, come from them. `complete` is False when the BFS
    stopped at _MAX_LEVELS."""

    def __init__(self, a, at, sources, limit):
        self.a, self.at, self.sources = a, at, sources
        self.sigma = np.zeros((a.shape[0], len(sources)))
        self.sigma[sources, np.arange(len(sources))] = 1.0
        self.masks = [self.sigma > 0.0]
        frontier = self.sigma.copy()
        self.complete = True
        while len(self.masks) <= limit:
            reached = at @ frontier
            # sigma is non-zero exactly where the BFS has been
            new = (reached > 0.0) & (self.sigma == 0.0)
            if not new.any():
                break
            if len(self.masks) > _MAX_LEVELS:
                self.complete = False
                return
            self.masks.append(new)
            frontier = np.multiply(reached, new, out=reached)
            self.sigma += frontier

    @cached_property
    def dist(self):
        level = sum(lvl * mask for lvl, mask in enumerate(self.masks))
        return np.where(self.sigma > 0.0, level, INF)

    def pred_count(self):
        return sum(((self.at @ up) * mask
                    for up, mask in zip(self.masks, self.masks[1:])),
                   np.zeros_like(self.sigma))

    def accumulate(self, left, right):
        x = np.zeros_like(self.sigma)
        for lvl in range(len(self.masks) - 1, 1, -1):
            c = (x + 1.0) * right * self.masks[lvl]
            x += left * (self.a @ c) * self.masks[lvl - 1]
        return x

    def reach(self):
        # the entries of masks[l] lie at distance l, so the sums are exact
        counts = np.array([m.sum(axis=0) for m in self.masks])
        lvl = np.arange(len(counts))[:, None]
        return counts[1:].sum(axis=0), (lvl * counts).sum(axis=0) * 1.0, \
            (lvl * (counts > 0)).max(axis=0) * 1.0


class _OrderedSweep(Traversal):
    """Any weights: distances from scipy's Dijkstra; the DAG is the set
    of arcs u->v with d(u) < d(v) and d(u) + w tying d(v), over all
    (node, source) pairs of the block at once, built on first use of
    `sigma`, `pred_count` or `accumulate`. Ordered by distance, the
    pairs make every DAG arc point forward, so path counts and the
    backward sweep are each one sparse triangular solve, whatever the
    depth of the DAG."""

    def __init__(self, a, tails, sources, limit):
        self.a, self.tails, self.sources = a, tails, sources
        self.dist = dijkstra(a, directed=True, indices=sources,
                             limit=limit).T

    @cached_property
    def _dag(self):
        """(tail, head, pos, structure): each DAG arc's ends as flat
        indices j*n + u of (b, n) arrays; every pair's position in
        distance order; and the CSR structure of the upper-triangular
        system over those positions, with one entry per DAG arc, listed
        in the same order, and the diagonal."""
        (n, b), a = self.dist.shape, self.a
        d = self.dist.T
        start = np.arange(b)[:, None] * n
        size = n * b
        pos = np.empty(size, dtype=np.int64)
        pos[(np.argsort(d, axis=1) + start).ravel()] = np.arange(size)
        # nan marks unreached nodes, so no comparison with them holds;
        # Dijkstra leaves d(u) + w >= d(v) on every arc it relaxed
        dn = np.where(d < INF, d, np.nan)
        du, dv = dn[:, self.tails], dn[:, a.indices]
        tie = (du < dv) & (du + a.data <= dv * (1.0 + TIE_RTOL))
        col, arc = np.divmod(np.flatnonzero(tie), a.nnz)
        tail, head = col * n + self.tails[arc], col * n + a.indices[arc]
        # the arc Dijkstra reached v by is in the DAG unless its weight
        # vanished in d(u) + w, which leaves v without a predecessor
        orphan = np.isfinite(d).ravel()
        orphan[head] = False
        orphan[start.ravel() + self.sources] = False
        if orphan.any():
            raise GraphInputError(
                "edge weights differ by more than float64 precision: "
                "adding one to a path length leaves it unchanged")
        # rows sorted, and columns within a row; every arc lies above
        # the diagonal, so each row starts with its diagonal entry
        rows, cols = pos[tail], pos[head]
        order = np.argsort(rows * size + cols)
        indptr = np.zeros(size + 1, dtype=np.intc)
        np.cumsum(np.bincount(rows, minlength=size) + 1, out=indptr[1:])
        off = np.ones(indptr[-1], dtype=bool)
        off[indptr[:-1]] = False
        indices = np.empty(indptr[-1], dtype=np.intc)
        indices[indptr[:-1]] = np.arange(size)
        indices[off] = cols[order]
        return tail[order], head[order], pos, (off, indices, indptr)

    def _system(self, c):
        """I - C in CSR over positions in distance order, where C holds
        c[i] on the i-th DAG arc."""
        _, _, pos, (off, indices, indptr) = self._dag
        data = np.ones(off.size)
        data[off] = -c
        system = scipy.sparse.csr_matrix((data, indices, indptr),
                                         shape=(pos.size, pos.size))
        system.has_canonical_format = True
        return system

    def _unflat(self, x):
        """A flat (b, n) array as an (n, b) one."""
        return x.reshape(self.dist.shape[::-1]).T

    @cached_property
    def sigma(self):
        tail, _, pos, _ = self._dag
        e = np.zeros(pos.size)
        e[pos[np.arange(len(self.sources)) * self.dist.shape[0] +
              self.sources]] = 1.0
        # sigma = e + Q^T sigma for the DAG's 0/1 matrix Q, lower
        # triangular
        y = spsolve_triangular(self._system(np.ones(tail.size)).T, e,
                               lower=True, unit_diagonal=True,
                               overwrite_A=True, overwrite_b=True)
        return self._unflat(y[pos])

    def pred_count(self):
        head = self._dag[1]
        return self._unflat(np.bincount(head, minlength=self.dist.size)
                            .astype(float))

    def accumulate(self, left, right):
        tail, head, pos, _ = self._dag
        shape = self.dist.shape
        c = np.broadcast_to(left, shape).T.ravel()[tail] * \
            np.broadcast_to(right, shape).T.ravel()[head]
        # x = C (1 + x) is (I - C) x = C 1, upper triangular
        x = spsolve_triangular(
            self._system(c), np.bincount(pos[tail], c, minlength=pos.size),
            lower=False, unit_diagonal=True, overwrite_A=True,
            overwrite_b=True)
        x = self._unflat(x[pos])
        x[self.sources, np.arange(len(self.sources))] = 0.0
        return x


def traverse(g: Graph, sources, cap: float | None = None):
    """Shortest paths from `sources`, one `Traversal` block at a time.

    Blocks cover `sources` in order; their size follows from a fixed
    budget of entries per temporary. With `cap`, nodes farther than it
    are unreachable; a distance within TIE_RTOL of the cap is kept.
    Distances follow out-arcs. Blocks of several sources on unit-weight
    graphs take the level sweep until one is deeper than _MAX_LEVELS;
    the rest take the distance-ordered sweep.
    """
    sources = np.asarray(sources, dtype=np.int64)
    limit = INF if cap is None else cap * (1.0 + TIE_RTOL)
    a = g.adjacency()
    b = max(1, _BLOCK_ENTRIES // max(g.n, a.nnz, 1))
    levels = g.unit_weights and min(b, len(sources)) > 1
    for i in range(0, len(sources), b):
        block = sources[i:i + b]
        if levels:
            t = _LevelSweep(a, g.reversed.adjacency(), block, limit)
            levels = t.complete
        if not levels:
            t = _OrderedSweep(a, g.arc_tails, block, limit)
        yield t


class ShortestPaths:
    """Single-source distances and geodesic counts (float64), as lists;
    the counts are computed on first use."""

    def __init__(self, source: int, t: Traversal):
        self.source = source
        self._t = t
        self.dist = t.dist[:, 0].tolist()

    @cached_property
    def sigma(self) -> list[float]:
        return self._t.sigma[:, 0].tolist()


def shortest_paths(g: Graph, source: int, cap: float | None = None,
                   reverse: bool = False) -> ShortestPaths:
    """One-source call of `traverse`, which runs Dijkstra for it.

    Unreachable nodes get distance inf and sigma 0. With `cap`, nodes
    beyond that distance are treated as unreachable. `reverse` walks
    in-edges (directed graphs only).
    """
    if not 0 <= source < g.n:
        raise GraphInputError(f"invalid source node {source}")
    if reverse:
        g = g.reversed
    return ShortestPaths(source, next(traverse(g, [source], cap)))


def all_distances(g: Graph, cap: float | None = None) -> np.ndarray:
    """Read-only (n, n) float64 distances, row s from source s
    (out-distances when directed); inf where unreachable or beyond
    `cap`."""
    require_dense(g.n, "all-pairs distances")
    dist = np.empty((g.n, g.n))
    for t in traverse(g, range(g.n), cap):
        dist[t.sources] = t.dist.T
    dist.flags.writeable = False
    return dist


# -- connected components ----------------------------------------------


@dataclass
class ComponentLabeling:
    labels: np.ndarray        # component id per node, -1 if excluded
    sizes: list[int]
    giant_size: int

    @cached_property
    def component_id(self) -> list[int]:
        """`labels` as a list, built on first use."""
        return self.labels.tolist()

    def members(self, cid: int) -> list[int]:
        return np.flatnonzero(self.labels == cid).tolist()


def components(g: Graph, mode: str = "weak",
               mask=None) -> ComponentLabeling:
    """Label connected components.

    `mode` is "weak" (direction ignored) or "strong" (SCCs; same as weak
    on undirected graphs). A `mask` has n entries: a list of bools, a
    bool array or a bytearray of 0/1. `mask[v]` false excludes v, as if
    removed, and labels it -1. Weak ids count components in order of
    their smallest node; strong ids on directed graphs are arbitrary.
    One csgraph call labels all n nodes on the operator less the entries
    with an excluded end; the excluded nodes' own ids are squeezed out.
    """
    if mode not in ("weak", "strong"):
        raise GraphInputError(f"unknown component mode {mode!r}")
    strong = g.directed and mode == "strong"
    tails, a = (g.arc_tails, g.adjacency(False)) if strong else g._edges
    alive = np.ones(g.n, dtype=bool)
    if mask is not None:
        alive = np.asarray(mask, dtype=bool)
        if alive.shape != (g.n,):
            raise GraphInputError(
                f"components mask has shape {alive.shape}, not ({g.n},)")
        a = _kept(a, alive.take(tails) & alive.take(a.indices))
    count, labels = connected_components(a, directed=strong, connection=mode)
    sizes = np.bincount(labels.compress(alive), minlength=count)
    live = sizes > 0
    comp = np.where(alive, (np.cumsum(live) - 1).take(labels), -1)
    sizes = sizes[live].tolist()
    return ComponentLabeling(comp, sizes, max(sizes, default=0))


def _kept(a, keep) -> scipy.sparse.csr_matrix:
    """0/1 CSR operator `a` less its entries where `keep` is False;
    every entry is 1, so a prefix of `a.data` serves as data."""
    ends = np.zeros(keep.size + 1, dtype=a.indptr.dtype)
    np.cumsum(keep, out=ends[1:])
    heads = a.indices.compress(keep)
    return scipy.sparse.csr_matrix(
        (a.data[:heads.size], heads, ends.take(a.indptr)), shape=a.shape)


def giant_fraction(g: Graph, mask=None, mode: str = "weak") -> float:
    """Giant-component size over the ORIGINAL node count."""
    if g.n == 0:
        return 0.0
    return components(g, mode=mode, mask=mask).giant_size / g.n


# -- max flow -----------------------------------------------------------


@dataclass
class MaxFlowResult:
    value: int
    throughflow: list[float]   # per node; equals value at s and t
    edge_flow: dict            # (u, v) -> signed flow on that arc


def max_flow(g: Graph, s: int, t: int) -> MaxFlowResult:
    """Unit-capacity max flow from s to t by csgraph's Edmonds-Karp.

    Every arc has capacity 1; an undirected edge is an arc each way.
    `throughflow[v]` is the positive flow into v (the value at s and t)
    and `edge_flow` the arcs of positive flow. The decomposition equals
    that of the Edmonds-Karp loop whose BFS scans residual neighbours in
    ascending id order (`oracles.max_flow` in the tests): csgraph's BFS
    scans its sorted rows in that order, which scipy does not document,
    so the tests comparing the two pin it.
    """
    if s == t:
        raise GraphInputError("max_flow requires s != t")
    res = maximum_flow(g._unit_capacities, s, t, method="edmonds_karp")
    flow = res.flow
    pos = flow.data > 0
    heads, f = flow.indices[pos], flow.data[pos]
    # float even when no arc carries flow: bincount of nothing is int
    through = np.bincount(heads, weights=f, minlength=g.n).astype(float)
    through[[s, t]] = res.flow_value
    tails = np.repeat(np.arange(g.n), np.diff(flow.indptr))[pos]
    return MaxFlowResult(int(res.flow_value), through.tolist(),
                         dict(zip(zip(tails.tolist(), heads.tolist()),
                                  f.tolist())))


# -- spectral / linear substrate -----------------------------------------


def fixed_point(step, x0, tol: float, max_iter: int, what: str):
    """Iterate x <- step(x) from `x0` until successive iterates differ
    by less than `tol` in the sup norm; returns the last iterate.

    Raises ConvergenceError, carrying the last gap, when `max_iter`
    steps do not get there.
    """
    x = x0
    gap = INF
    for _ in range(max_iter):
        y = step(x)
        gap = float(np.max(np.abs(y - x), initial=0.0))
        x = y
        if gap < tol:
            return x
    raise ConvergenceError(
        f"{what} did not converge in {max_iter} iterations "
        f"(last gap {gap:.3e})", residual=gap)


def power_iteration(matvec, init, tol: float = 1e-10,
                    max_iter: int = 100000) -> tuple[float, np.ndarray]:
    """Principal eigenpair of a non-negative linear action.

    `matvec` maps an n-vector to an n-vector; `init` must be strictly
    positive. Convergence: successive normalized iterates differ by less
    than `tol` in the sup norm. Returns (eigenvalue, L2-unit vector).
    """
    x = np.asarray(init, dtype=float)
    if x.ndim != 1 or np.any(x <= 0):
        raise GraphInputError("power iteration needs a strictly positive init")

    def step(x):
        y = np.asarray(matvec(x), dtype=float)
        norm = np.linalg.norm(y)
        # an action that annihilates the iterate leaves it fixed, with
        # eigenvalue 0
        return y / norm if norm else x

    x = fixed_point(step, x / np.linalg.norm(x), tol, max_iter,
                    "power iteration")
    return float(np.dot(x, np.asarray(matvec(x), dtype=float))), x


def spectral_radius(g: Graph, tol: float = 1e-10,
                    max_iter: int = 100000) -> float:
    """Largest adjacency eigenvalue magnitude.

    Undirected graphs power-iterate the sparse operator with a +I shift,
    which converges on bipartite/periodic graphs too. The Rayleigh
    quotient is exact to working precision at `tol` 1e-10; a tighter
    `tol` can sit below the rounding noise of a hub's long row sum.
    Directed graphs use a dense eigensolve under the dense cap.
    """
    if g.n == 0:
        return 0.0
    if not g.directed:
        a = g.adjacency()
        lam, _ = power_iteration(lambda x: x + a @ x, np.ones(g.n),
                                 tol=tol, max_iter=max_iter)
        return lam - 1.0
    ev = np.linalg.eigvals(g.adjacency_matrix())
    return float(np.max(np.abs(ev)))


def solve_linear(m, b=None):
    """Solve M x = b, or invert M when b is None.

    Raises SingularMatrixError naming the offending pivot when M is
    singular to working precision. Dense only; guarded by DENSE_CAP.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraphInputError("solve_linear needs a square matrix")
    n = m.shape[0]
    require_dense(n, "linear solve")
    with warnings.catch_warnings():
        # an exactly zero pivot warns; the check below names it instead
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    diag = np.abs(np.diag(lu))
    scale = max(np.max(np.abs(m)), 1.0)
    bad = np.nonzero(diag <= scale * n * np.finfo(float).eps)[0]
    if bad.size:
        raise SingularMatrixError(
            f"matrix singular to working precision at pivot {int(bad[0])}",
            pivot=int(bad[0]))
    rhs = np.eye(n) if b is None else np.asarray(b, dtype=float)
    x = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return x


def params_digest(params: dict) -> str:
    """Canonical serialization of the tunables a metric actually used."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"),
                      default=str)
