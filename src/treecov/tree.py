"""Spanning trees over covariance indices and best tree approximations.

The optimal tree approximation of a covariance matrix is the maximum-weight
spanning tree under pairwise mutual-information edge weights, completed to a
full covariance by the path-product rule. The fit is that ``TreeCovMatrix``
itself, and its divergence from the input is ``kl_gaussian(sigma, fit)``:
because the fit matches sigma on the diagonal and the tree edges, where its
inverse lives (Lauritzen 1996, decomposable case), the trace term is p and
the divergence is (Chow & Liu 1968)

    D(sigma || sigma_T) = 0.5 * (ln det sigma_T - ln det sigma),

which ``kl_gaussian`` evaluates in O(p) from the closed-form log-determinant.

A tree covariance is a ``TreeCovMatrix``, built only from its parameters:
the tree, p variances and p - 1 edge covariances. One pass validates them,
completes the entries by path products and builds the closed forms, the
log-determinant and the sparse precision of p diagonal and p - 1 edge
coefficients. As the second argument of ``kl_gaussian`` it pairs with the
first in O(p), reading it only on the diagonal and at the tree's edges; a
result within roundoff of zero falls back to the dense evaluation through
both Cholesky factors, which a tree covariance computes only when read.

A fit makes one pass over what Kruskal needs: the mutual-information weights
of the pairs u < v, the heaviest of them ordered, and components tracked by
vertex labels, the same helper that validates a ``SpanningTree``.
Consecutive EM iterates mostly refit the same tree, so fitted trees are
interned: a repeated edge set returns the existing frozen ``SpanningTree``,
which keeps its index arrays and its breadth-first order, and
``TreeCovMatrix`` reads that order off the tree instead of traversing it
again.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .gaussian import (
    CovMatrix,
    NotPositiveDefiniteError,
    NumericalError,
    _as_cov,
    _as_int,
    _check_type,
    _cholesky,
    _real_array,
    _upper_pair_weights,
    _upper_pairs,
)

# Kruskal on a Chow-Liu input scans a few p candidates, so chow_liu orders
# only the heaviest 8p (doubling when that runs short); at p <= 17 that is
# every pair and it sorts them all.
CANDIDATES_PER_VERTEX = 8


def _normalize_edge(edge: Sequence[int]) -> tuple[int, int]:
    try:
        u, v = map(operator.index, edge)
    except (TypeError, ValueError):
        raise ValueError(f"edge {edge!r} is not a pair of integer vertices") from None
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Undirected spanning tree on vertices 0..p-1.

    Exactly p - 1 edges, connected and acyclic, each a pair of integers
    (Python or numpy). Edges are normalized to (smaller, larger) pairs and
    stored sorted, so equal trees have equal edge tuples. Instances are
    immutable, and the index arrays and breadth-first order derived from
    the edges are computed once, on first read.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        p = _as_int(self.num_vertices, "num_vertices")
        if p < 1:
            raise ValueError(f"need at least one vertex, got {p}")
        normalized = []
        for edge in self.edges:
            u, v = _normalize_edge(edge)
            if not (0 <= u and v < p):
                raise ValueError(f"edge ({u}, {v}) out of range for {p} vertices")
            normalized.append((u, v))
        normalized.sort()
        if len(normalized) != p - 1:
            raise ValueError(
                f"spanning tree on {p} vertices needs {p - 1} edges, got {len(normalized)}"
            )
        # p - 1 edges that Kruskal accepts all are acyclic, hence connected. A
        # self-loop, or the second copy of an edge, is an edge it rejects.
        accepted = _kruskal(p, [u for u, _ in normalized], [v for _, v in normalized])
        if len(accepted) < len(normalized):
            u, v = normalized[min(set(range(len(normalized))).difference(accepted))]
            raise ValueError(f"edge ({u}, {v}) closes a cycle")
        object.__setattr__(self, "num_vertices", p)
        object.__setattr__(self, "edges", tuple(normalized))

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges as two read-only index arrays, smaller vertices first."""
        u, v = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T.copy()
        u.setflags(write=False)
        v.setflags(write=False)
        return u, v

    @cached_property
    def bfs_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Breadth-first order from vertex 0, as three read-only index arrays.

        ``position[v]`` is the place of vertex v in the order. For places
        k = 1..p-1, ``parent_position[k - 1]`` is the place of that vertex's
        parent, which comes earlier, and ``parent_edge[k - 1]`` the index in
        ``edges`` of the edge joining them. Neighbours are visited in the
        order of ``edges``.
        """
        p = self.num_vertices
        adj: list[list[tuple[int, int]]] = [[] for _ in range(p)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        order = [0]
        seen = [False] * p
        seen[0] = True
        parent_position = []
        parent_edge = []
        for k, x in enumerate(order):
            for y, i in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    order.append(y)
                    parent_position.append(k)
                    parent_edge.append(i)
        position = np.empty(p, dtype=np.intp)
        position[order] = np.arange(p)
        arrays = (
            position,
            np.array(parent_position, dtype=np.intp),
            np.array(parent_edge, dtype=np.intp),
        )
        for arr in arrays:
            arr.setflags(write=False)
        return arrays


@dataclass(frozen=True, eq=False)
class TreeCovMatrix(CovMatrix):
    """Covariance with a spanning tree's Markov structure, built from its parameters.

    ``d`` holds p finite, positive variances and ``edge_cov[k]`` the
    covariance of ``tree.edges[k]``; both are copied and made read-only.
    With std = sqrt(d), the edge correlations are
    rho = edge_cov / (std[u] * std[v]) over ``tree.edge_index`` (u < v), and
    |rho| < 1 is exactly positive definiteness, so a larger one raises
    NotPositiveDefiniteError. A complex ``d`` or ``edge_cov``, one of the
    wrong shape, a variance that is not finite and positive, an edge
    covariance that is not finite, or a ``tree`` that is not a SpanningTree,
    raises ValueError.

    ``entries`` is the completion: variances and edge covariances verbatim,
    and every other (u, v) entry std[u] * std[v] times the product of edge
    correlations along the tree path from u to v. The correlations are
    filled in the tree's cached breadth-first order
    (``SpanningTree.bfs_order``): each vertex's row over the vertices placed
    before it is its parent's row times one edge correlation. ``chol`` is
    computed on first read.

    The precision is D^-1/2 P D^-1/2 with D = diag(d) and P the inverse
    correlation matrix, which is zero off the diagonal and the edges:

        precision_diag[v] = P_vv = 1 + sum_{e at v} rho_e^2 / (1 - rho_e^2),
        precision_edge[e] = P_uv = -rho_e / (1 - rho_e^2),

    and ln det = sum_v ln d_v + sum_e ln(1 - rho_e^2). Both evaluate
    1 - rho^2 as (1 - rho)(1 + rho), which stays accurate as |rho| -> 1.
    """

    entries: np.ndarray = field(init=False, repr=False)
    tree: SpanningTree
    d: np.ndarray
    edge_cov: np.ndarray
    rho: np.ndarray = field(init=False, repr=False)
    precision_diag: np.ndarray = field(init=False, repr=False)
    precision_edge: np.ndarray = field(init=False, repr=False)
    _edge_scale: np.ndarray = field(init=False, repr=False)
    _roundoff_scale: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = _check_type(self.tree, SpanningTree, "tree").num_vertices
        d = _real_array(self.d, "variances")
        edge_cov = _real_array(self.edge_cov, "edge covariances")
        if d.shape != (p,):
            raise ValueError(f"need {p} variances, got shape {d.shape}")
        if not np.all(np.isfinite(d) & (d > 0.0)):
            raise ValueError("variances must be finite and positive")
        if edge_cov.shape != (p - 1,):
            raise ValueError(f"need {p - 1} edge covariances, got shape {edge_cov.shape}")
        u, v = self.tree.edge_index
        std = np.sqrt(d)
        edge_scale = std[u] * std[v]
        rho = edge_cov / edge_scale
        if not np.all(np.abs(rho) < 1.0):
            # Checked only here, off the hot path: a non-finite edge_cov fails |rho| < 1.
            if not np.all(np.isfinite(edge_cov)):
                raise ValueError("edge covariances must be finite")
            raise NotPositiveDefiniteError("covariance is not positive definite")
        position, parent_position, parent_edge = self.tree.bfs_order
        # Rows and columns in BFS order, so each parent row is a contiguous slice.
        corr = np.eye(p)
        steps = zip(parent_position.tolist(), rho[parent_edge].tolist())
        for k, (parent, r) in enumerate(steps, start=1):
            row = np.multiply(corr[parent, :k], r, out=corr[k, :k])
            corr[:k, k] = row
        a = corr[position][:, position] * np.outer(std, std)
        np.fill_diagonal(a, d)
        a[u, v] = edge_cov
        a[v, u] = edge_cov
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "edge_cov", edge_cov)
        object.__setattr__(self, "rho", rho)
        q = 1.0 / self._one_minus_rho_sq
        extra = rho * rho * q
        p_diag = 1.0 + np.bincount(u, extra, p) + np.bincount(v, extra, p)
        p_edge = -rho * q
        for arr in (a, d, edge_cov, rho, p_diag, p_edge, edge_scale):
            arr.setflags(write=False)
        object.__setattr__(self, "precision_diag", p_diag)
        object.__setattr__(self, "precision_edge", p_edge)
        object.__setattr__(self, "_edge_scale", edge_scale)
        # sum_v P_vv + 2 sum_e |P_uv rho_e|: the trace's terms at other = self.
        object.__setattr__(self, "_roundoff_scale", p + 4.0 * float(np.sum(extra)))

    @property
    def _one_minus_rho_sq(self) -> np.ndarray:
        return (1.0 - self.rho) * (1.0 + self.rho)

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of ``entries``, computed on first read."""
        return _cholesky(self.entries)

    @cached_property
    def log_det(self) -> float:
        """ln det from the variances and edge correlations, without a factor."""
        return float(np.sum(np.log(self.d)) + np.sum(np.log(self._one_minus_rho_sq)))

    def inverse_trace(self, other: CovMatrix) -> tuple[float, float]:
        """tr(S^-1 S_other) from the sparse precision, in O(p).

        Reads ``other`` on the diagonal and at this tree's edges only, as
        a_v = other_vv / d_v and c_e = other_uv / sqrt(d_u d_v). The trace is
        sum_v P_vv a_v + 2 sum_e P_uv c_e, summed as

            p + sum_v P_vv (other_vv - d_v) / d_v + 2 sum_e P_uv (c_e - rho_e),

        whose terms vanish as ``other`` approaches this covariance, so no
        large partial sums cancel. The scale is the summed magnitude of the
        plain form's terms at other = self, p + 4 sum_e rho_e^2 / (1 - rho_e^2):
        only near there can a divergence be within roundoff of zero, and there
        the closed form's roundoff stays below eps times it.
        """
        s0 = other.entries
        u, v = self.tree.edge_index
        a_dev = (np.diagonal(s0) - self.d) / self.d
        c = s0[u, v] / self._edge_scale
        trace = self.d.size + float(
            self.precision_diag @ a_dev + 2.0 * (self.precision_edge @ (c - self.rho))
        )
        return trace, self._roundoff_scale


def prufer_decode(sequence: Iterable[int], num_vertices: int) -> tuple[tuple[int, int], ...]:
    """Edges of the labelled tree encoded by a length-(p-2) vertex sequence.

    Every labelled tree on p vertices corresponds to exactly one sequence,
    so iterating over all p^(p-2) sequences enumerates all trees. The empty
    sequence at p = 2 decodes to the single edge (0, 1).
    """
    seq = [_as_int(s, "sequence entry") for s in sequence]
    p = _as_int(num_vertices, "num_vertices")
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


def tree_covariance(sigma: CovMatrix, tree: SpanningTree) -> TreeCovMatrix:
    """Marginal-matching covariance of ``sigma`` with the tree's Markov structure.

    The ``TreeCovMatrix`` whose variances and tree-edge covariances are
    those of ``sigma``; every other entry is sqrt(sigma_uu * sigma_vv) times
    the product of edge correlations along the unique tree path between u
    and v. The inverse of the result is sparse outside the tree. An edge
    correlation that roundoff puts at |rho| >= 1 raises NumericalError.

    Parameters
    ----------
    sigma : CovMatrix
        Source CovMatrix of the tree's vertex count, else ValueError naming it.
    tree : SpanningTree
        Markov structure to impose, else ValueError naming ``tree``.

    Returns
    -------
    TreeCovMatrix
        The completed covariance with its closed-form log-determinant and
        precision; positive definite for any valid input.
    """
    s = _as_cov(sigma, "sigma", _check_type(tree, SpanningTree, "tree").num_vertices).entries
    u, v = tree.edge_index
    try:
        return TreeCovMatrix(tree, np.diag(s), s[u, v])
    except NotPositiveDefiniteError as exc:
        raise NumericalError(
            "tree covariance lost positive definiteness; input assumptions violated"
        ) from exc


def _heaviest_first(weights: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest weights and every tie with the k-th, heaviest first.

    Ties keep index order, so the result is the prefix of
    ``np.argsort(-weights, kind="stable")`` that holds every weight at
    least the k-th largest; for k >= weights.size it is that whole order.
    """
    n = weights.size
    if k >= n:
        return np.argsort(-weights, kind="stable")
    top = np.flatnonzero(weights >= np.partition(weights, n - k)[n - k])
    return top[np.argsort(-weights[top], kind="stable")]


def _kruskal(p: int, us: Sequence[int], vs: Sequence[int]) -> list[int]:
    """Places i of the candidates (us[i], vs[i]) accepted scanning in order, at most p - 1.

    Every vertex carries the label of its component. A candidate is accepted
    when its ends carry different labels, and the smaller of the two
    components is then relabelled, so each vertex is relabelled at most
    log2(p) times.
    """
    label = list(range(p))
    members = [[x] for x in range(p)]
    accepted: list[int] = []
    for i, (u, v) in enumerate(zip(us, vs)):
        a, b = label[u], label[v]
        if a == b:
            continue
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for x in members[b]:
            label[x] = a
        members[a] += members[b]
        accepted.append(i)
        if len(accepted) == p - 1:
            break
    return accepted


@lru_cache(maxsize=8)
def _interned_tree(p: int, edges: tuple[tuple[int, int], ...]) -> SpanningTree:
    """The one SpanningTree per recently fitted edge set, validated once.

    Consecutive EM iterates mostly refit the same tree; sharing the frozen
    instance also shares its cached index arrays and breadth-first order.
    """
    return SpanningTree(p, edges)


def chow_liu(sigma: CovMatrix) -> TreeCovMatrix:
    """Best tree approximation of ``sigma`` in KL divergence.

    Runs Kruskal on the complete graph with pairwise mutual-information
    weights w = -0.5 * ln(1 - rho^2), maximizing total weight. The weights
    are computed once, for the pairs u < v, and a pair with
    |rho| >= 1 - 1e-12 raises DegenerateCorrelationError.
    Ties are broken deterministically by ordering candidate edges on
    (weight descending, smaller vertex, larger vertex). Only the heaviest 8p
    candidates, with every tie at the cut, are ordered; should Kruskal
    exhaust them the cut doubles and the scan resumes from the forest it
    accepted, so the tree is the one a full ordering gives. Kruskal tracks
    components by vertex labels. The tree is shared with recent fits of the
    same edge set, so a repeated tree is neither validated nor traversed
    again.

    Parameters
    ----------
    sigma : CovMatrix
        CovMatrix to approximate, dimension at least 2, else ValueError naming it.

    Returns
    -------
    TreeCovMatrix
        ``tree_covariance(sigma, tree)`` for the fitted tree: it matches
        ``sigma`` on all variances and tree-edge covariances, and its
        approximation divergence is ``kl_gaussian(sigma, fit)``.
    """
    p = _as_cov(sigma, "sigma").dim
    if p < 2:
        raise ValueError(f"need at least two vertices, got {p}")
    u_all, v_all, _ = _upper_pairs(p)
    weights = _upper_pair_weights(sigma)
    # Pairs come in (u, v) order, which the stable ordering keeps for ties.
    # A doubled cut orders a longer prefix of the same stable order, and a
    # candidate already rejected closes a cycle in the forest accepted so far,
    # so a rescan resumes from that forest and the newly ordered slice alone.
    k = CANDIDATES_PER_VERTEX * p
    chosen = np.empty(0, dtype=np.intp)
    scanned = 0
    while len(chosen) < p - 1:
        order = _heaviest_first(weights, k)
        candidates = np.concatenate((chosen, order[scanned:]))
        accepted = _kruskal(p, u_all[candidates].tolist(), v_all[candidates].tolist())
        chosen = candidates[accepted]
        scanned = order.size
        k *= 2
    edges = sorted(zip(u_all[chosen].tolist(), v_all[chosen].tolist()))
    return tree_covariance(sigma, _interned_tree(p, tuple(edges)))
