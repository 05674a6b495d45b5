"""Neighbourhood counts over the adjacency: common neighbours per arc and
sums over h-hop balls, in blocks that `graph.cut_blocks` cuts from the
one budget `graph._BLOCK_ENTRIES`. The balls step over the closed
operator A + I that `closed_operator` builds."""

import numpy as np
import scipy.sparse

from .graph import Graph, cut_blocks, row_positions


def closed_operator(g: Graph) -> scipy.sparse.csr_matrix:
    """A + I over `Graph.undirected_adjacency`: direction ignored, 0/1
    int64, a new object on each call, so a caller may zero its entries."""
    return (g.undirected_adjacency + scipy.sparse.identity(g.n, format="csr")
            ).astype(np.int64)


def ball_sums(op, rows, radius: int, x) -> tuple[np.ndarray, np.ndarray]:
    """(inner, outer): the sums of x over the nodes within radius - 1 and
    `radius` hops of each of `rows` over the integer operator `op`, which
    holds the identity (scipy drops zero sums). The balls grow by one
    product per hop, in blocks of rows that `cut_blocks` cuts from each
    row's walks of length `radius`, capped at n, which bound its ball."""
    n = op.shape[0]
    walks = np.ones(n, dtype=np.int64)
    for _ in range(radius):
        walks = np.minimum(op @ walks, n)
    inner_sum, outer_sum = np.empty((2, len(rows)),
                                    dtype=np.result_type(op.dtype, x))
    for part in cut_blocks(walks[rows]):
        k = part.stop - part.start
        ball = scipy.sparse.csr_matrix(
            (np.ones(k, dtype=np.int64), rows[part], np.arange(k + 1)),
            shape=(k, n))
        for _ in range(radius):
            inner = ball
            ball = inner @ op
            ball.data[:] = 1
        inner_sum[part], outer_sum[part] = inner @ x, ball @ x
    return inner_sum, outer_sum


def closed_wedges(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(arc, vt, rt) for every stored arc (v, r) of the CSR operator `a`
    (rows sorted) and every t in both v's and r's rows, vt and rt the
    positions of (v, t) and (r, t); grouped by arc in storage order, t
    ascending. Each arc walks the shorter row and binary-searches the
    sorted keys tail * n + head for the other entry (Latapy's triangle
    listing), in blocks of walks summing to about _BLOCK_ENTRIES / 2."""
    n, ptr, heads = a.shape[0], a.indptr, a.indices
    deg = np.diff(ptr)
    tails = np.repeat(np.arange(n), deg)
    keys = tails * n + heads
    flip = deg[heads] <= deg[tails]     # walk r's row rather than v's
    walked, other = np.where(flip, heads, tails), np.where(flip, tails, heads)
    parts = []
    for part in cut_blocks(deg[walked], 2):
        at = row_positions(ptr, walked[part])
        arc = np.repeat(np.arange(part.start, part.stop), deg[walked[part]])
        want = other[arc] * n + heads[at]
        hit = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        found = keys[hit] == want
        arc, at, hit, f = arc[found], at[found], hit[found], flip[arc[found]]
        parts.append((arc, np.where(f, hit, at), np.where(f, at, hit)))
    return tuple(np.concatenate(x) for x in zip(*parts))
