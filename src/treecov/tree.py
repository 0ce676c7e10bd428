"""Spanning trees over covariance indices and best tree approximations.

The optimal tree approximation of a covariance matrix is the maximum-weight
spanning tree under pairwise mutual-information edge weights, completed to a
full covariance by the path-product rule. Its divergence has a closed form
(Chow & Liu 1968): the total correlation of the input less the tree's weight,

    D(sigma || sigma_T) = 0.5 * (sum_v ln s_vv - ln det sigma) - sum_{(u,v) in T} w_uv,

because sigma_T's log-determinant is sum_v ln s_vv + sum_T ln(1 - rho_uv^2)
and its inverse is zero off the diagonal and the tree edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gaussian import (
    CovMatrix,
    NotPositiveDefiniteError,
    NumericalError,
    _clamp_kl,
    mutual_information_matrix,
)


def _normalize_edge(edge: Sequence[int]) -> tuple[int, int]:
    u, v = int(edge[0]), int(edge[1])
    return (u, v) if u < v else (v, u)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Undirected spanning tree on vertices 0..p-1.

    Exactly p - 1 edges, connected and acyclic. Edges are normalized to
    (smaller, larger) pairs and stored sorted, so equal trees have equal
    edge tuples.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        p = self.num_vertices
        if p < 1:
            raise ValueError(f"need at least one vertex, got {p}")
        normalized = []
        for edge in self.edges:
            u, v = _normalize_edge(edge)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u and v < p):
                raise ValueError(f"edge ({u}, {v}) out of range for {p} vertices")
            normalized.append((u, v))
        normalized.sort()
        if len(normalized) != p - 1:
            raise ValueError(
                f"spanning tree on {p} vertices needs {p - 1} edges, got {len(normalized)}"
            )
        if len(set(normalized)) != len(normalized):
            raise ValueError("duplicate edge")
        uf = _UnionFind(p)
        for u, v in normalized:
            if not uf.union(u, v):
                raise ValueError(f"edge ({u}, {v}) closes a cycle")
        # p - 1 edges and no cycle together imply connectivity.
        object.__setattr__(self, "edges", tuple(normalized))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True, eq=False)
class TreeApproxResult:
    """A spanning tree, its marginal-matching covariance, and the KL cost."""

    tree: SpanningTree
    cov: CovMatrix
    kl: float


def prufer_decode(sequence: Iterable[int], num_vertices: int) -> tuple[tuple[int, int], ...]:
    """Edges of the labelled tree encoded by a length-(p-2) vertex sequence.

    Every labelled tree on p vertices corresponds to exactly one sequence,
    so iterating over all p^(p-2) sequences enumerates all trees. The empty
    sequence at p = 2 decodes to the single edge (0, 1).
    """
    seq = [int(s) for s in sequence]
    p = num_vertices
    if p < 2:
        raise ValueError(f"need at least two vertices, got {p}")
    if len(seq) != p - 2:
        raise ValueError(f"sequence length {len(seq)} != {p - 2}")
    if any(not 0 <= s < p for s in seq):
        raise ValueError("sequence entry out of range")
    degree = [1] * p
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(p) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s) if leaf < s else (s, leaf))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return tuple(edges)


def tree_completion(
    diag: np.ndarray, tree: SpanningTree, edge_cov: Sequence[float]
) -> np.ndarray:
    """Covariance entries with variances ``diag`` and the tree's Markov structure.

    ``edge_cov[k]`` is the covariance of ``tree.edges[k]``. Variances and
    edge covariances are copied verbatim; every other (u, v) entry is
    sqrt(diag[u] * diag[v]) times the product of edge correlations along the
    unique tree path from u to v. One breadth-first pass from vertex 0 fills
    the correlations: each newly reached vertex's row over the vertices
    reached so far is its parent's row times one edge correlation.
    """
    p = tree.num_vertices
    diag = np.asarray(diag, dtype=float)
    std = np.sqrt(diag)
    cov_of = dict(zip(tree.edges, edge_cov))
    adj = tree.adjacency()
    order = [0]
    parent = [-1] * p
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                order.append(y)
    pos = [0] * p
    for k, y in enumerate(order):
        pos[y] = k
    # Rows and columns in BFS order, so each parent row is a contiguous slice.
    corr = np.eye(p)
    for k in range(1, p):
        y = order[k]
        x = parent[y]
        rho = float(cov_of[(x, y) if x < y else (y, x)]) / float(std[x] * std[y])
        row = corr[pos[x], :k] * rho
        corr[k, :k] = row
        corr[:k, k] = row
    cov = corr[np.ix_(pos, pos)] * np.outer(std, std)
    np.fill_diagonal(cov, diag)
    for (u, v), c in cov_of.items():
        cov[u, v] = cov[v, u] = c
    return cov


def tree_covariance(sigma: CovMatrix, tree: SpanningTree) -> CovMatrix:
    """Marginal-matching covariance of ``sigma`` with the tree's Markov structure.

    Variances and tree-edge covariances equal those of ``sigma``; every other
    entry is sqrt(sigma_uu * sigma_vv) times the product of edge correlations
    along the unique tree path between u and v. The inverse of the result is
    sparse outside the tree.

    Parameters
    ----------
    sigma : CovMatrix
        Source covariance, dimension matching the tree's vertex count.
    tree : SpanningTree
        Markov structure to impose.

    Returns
    -------
    CovMatrix
        The completed covariance; positive definite for any valid input.
    """
    if tree.num_vertices != sigma.dim:
        raise ValueError(
            f"vertex count {tree.num_vertices} != covariance dimension {sigma.dim}"
        )
    s = sigma.entries
    tilde = tree_completion(np.diag(s), tree, [s[u, v] for u, v in tree.edges])
    try:
        return CovMatrix(tilde)
    except NotPositiveDefiniteError as exc:
        raise NumericalError(
            "tree covariance lost positive definiteness; input assumptions violated"
        ) from exc


def chow_liu(sigma: CovMatrix) -> TreeApproxResult:
    """Best tree approximation of ``sigma`` in KL divergence.

    Runs Kruskal on the complete graph with pairwise mutual-information
    weights w, maximizing total weight. Ties are broken deterministically by
    sorting candidate edges on (weight descending, smaller vertex, larger
    vertex). The returned covariance matches ``sigma`` on all variances and
    tree-edge covariances, and ``kl`` is the approximation divergence

        0.5 * (sum_v ln s_vv - ln det sigma) - sum_{(u,v) in tree} w_uv,

    read off the weights of the chosen edges and the factor of ``sigma``.

    Parameters
    ----------
    sigma : CovMatrix
        Covariance to approximate, dimension at least 2.
    """
    p = sigma.dim
    if p < 2:
        raise ValueError(f"need at least two vertices, got {p}")
    u_all, v_all = np.triu_indices(p, k=1)
    mi = mutual_information_matrix(sigma)
    weights = mi[u_all, v_all]
    # triu_indices lists pairs in (u, v) order, which a stable sort keeps for ties.
    order = np.argsort(-weights, kind="stable")
    uf = _UnionFind(p)
    edges = []
    for u, v in zip(u_all[order].tolist(), v_all[order].tolist()):
        if uf.union(u, v):
            edges.append((u, v))
            if len(edges) == p - 1:
                break
    tree = SpanningTree(p, tuple(edges))
    tree_weight = float(sum(mi[u, v] for u, v in edges))
    total_correlation = 0.5 * (float(np.sum(np.log(np.diag(sigma.entries)))) - sigma.log_det)
    # Both terms grow with p and with |rho|, so their difference carries
    # more roundoff than a single divergence evaluation.
    kl = _clamp_kl(total_correlation - tree_weight, bound=1e-9)
    return TreeApproxResult(tree=tree, cov=tree_covariance(sigma, tree), kl=kl)
