"""Spanning trees, tree covariances, and the maximum-MI tree fit.

The manual three-tree enumeration and the exhaustive Prufer-based search act
as oracles for the Kruskal implementation.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecov.tree
from treecov import (
    CovMatrix,
    DegenerateCorrelationError,
    NotPositiveDefiniteError,
    NumericalError,
    SpanningTree,
    TreeCovMatrix,
    chow_liu,
    kl_gaussian,
    tree_covariance,
)
from treecov.gaussian import _upper_pair_weights
from treecov.tree import prufer_decode

from _helpers import (
    adjacency,
    brute_force_optimal_tree,
    corr3,
    random_spd,
    scalar_pair_weights,
)


def random_tree(rng: np.random.Generator, p: int) -> SpanningTree:
    seq = [int(s) for s in rng.integers(0, p, size=max(p - 2, 0))]
    return SpanningTree(p, prufer_decode(seq, p))


def stiff_tree_cov(rng: np.random.Generator, tree: SpanningTree) -> TreeCovMatrix:
    """Tree covariance with unequal variances and a quarter of |rho| at 0.9999."""
    p = tree.num_vertices
    rho = rng.uniform(0.5, 0.9999, size=p - 1) * rng.choice([-1.0, 1.0], size=p - 1)
    rho[: (p - 1) // 4] = 0.9999 * np.sign(rho[: (p - 1) // 4])
    std = rng.uniform(0.3, 3.0, size=p)
    return tree_cov_from(tree, std**2, rho)


def tree_cov_from(tree: SpanningTree, d: np.ndarray, rho: np.ndarray) -> TreeCovMatrix:
    std = np.sqrt(d)
    u, v = tree.edge_index
    return TreeCovMatrix(tree, d, rho * std[u] * std[v])


def dense_kl(p0: CovMatrix, p1: CovMatrix) -> float:
    """The divergence through both Cholesky factors, with kl_gaussian's clamp:
    the dense evaluation a tree covariance falls back to near zero."""
    if np.array_equal(p0.entries, p1.entries):
        return 0.0
    l0 = np.linalg.cholesky(p0.entries)
    l1 = np.linalg.cholesky(p1.entries)
    a = np.linalg.solve(l1, l0)
    logdet0 = 2.0 * float(np.sum(np.log(np.diag(l0))))
    logdet1 = 2.0 * float(np.sum(np.log(np.diag(l1))))
    kl = 0.5 * (float(np.sum(a * a)) - p0.dim + logdet1 - logdet0)
    if kl < -1e-12:
        raise NumericalError(f"KL divergence {kl:.6e} is negative beyond roundoff")
    return max(kl, 0.0)


def reference_kl(s0: np.ndarray, s1: np.ndarray) -> float:
    """slogdet for both log-determinants and a dense solve for the trace."""
    _, logdet0 = np.linalg.slogdet(s0)
    _, logdet1 = np.linalg.slogdet(s1)
    trace = float(np.trace(np.linalg.solve(s1, s0)))
    return 0.5 * (trace - s0.shape[0] + logdet1 - logdet0)


def sorted_kruskal_tree(sigma: CovMatrix) -> tuple[tuple[int, int], ...]:
    """Kruskal over every pair, fully stable-sorted by weight descending."""
    p = sigma.dim
    u_all, v_all = np.triu_indices(p, k=1)
    order = np.argsort(-_upper_pair_weights(sigma), kind="stable")
    parent = list(range(p))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = []
    for k in order:
        ru, rv = find(int(u_all[k])), find(int(v_all[k]))
        if ru != rv:
            parent[ru] = rv
            edges.append((int(u_all[k]), int(v_all[k])))
    return SpanningTree(p, tuple(edges)).edges


def total_mi_weight(sigma: CovMatrix, tree: SpanningTree) -> float:
    s = sigma.entries
    u, v = tree.edge_index
    rho = s[u, v] / np.sqrt(s[u, u] * s[v, v])
    return float(np.sum(-0.5 * np.log1p(-rho * rho)))


class TestSpanningTree:
    def test_normalizes_and_sorts_edges(self):
        tree = SpanningTree(3, ((2, 1), (1, 0)))
        assert tree.edges == ((0, 1), (1, 2))

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError, match="needs"):
            SpanningTree(3, ((0, 1),))

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            SpanningTree(4, ((0, 1), (1, 2), (0, 2)))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            SpanningTree(3, ((0, 1), (1, 0)))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SpanningTree(3, ((0, 0), (1, 2)))

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            SpanningTree(3, ((0, 1), (1, 3)))

    def test_single_vertex(self):
        assert SpanningTree(1, ()).edges == ()

    def test_rejects_no_vertex(self):
        with pytest.raises(ValueError, match="^need at least one vertex, got 0$"):
            SpanningTree(0, [])

    @pytest.mark.parametrize("bad", [3.0, "3", None])
    def test_rejects_non_integer_vertex_count_by_name(self, bad):
        with pytest.raises(ValueError, match="num_vertices must be an integer"):
            SpanningTree(bad, ((0, 1), (1, 2)))
        tree = SpanningTree(np.int64(3), ((0, 1), (1, 2)))
        assert type(tree.num_vertices) is int and tree.num_vertices == 3

    @pytest.mark.parametrize(
        "bad", [(0, 1.9), (0, 1, 7), (0,), (0, "1"), 0, (np.float64(0.0), 1)]
    )
    def test_rejects_edge_that_is_not_a_pair_of_integers(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"edge {bad!r} is not a pair")):
            SpanningTree(3, (bad, (1, 2)))

    def test_accepts_numpy_integer_vertices(self):
        tree = SpanningTree(3, ((np.int64(2), np.int32(1)), (np.intp(1), 0)))
        assert tree.edges == ((0, 1), (1, 2))
        assert all(type(x) is int for edge in tree.edges for x in edge)


class TestBfsOrder:
    @pytest.mark.parametrize("p", [1, 2, 3, 10, 80])
    def test_parents_precede_children_along_tree_edges(self, p):
        rng = np.random.default_rng(300 + p)
        if p == 1:
            trees = [SpanningTree(1, ())]
        else:
            trees = [random_tree(rng, p) for _ in range(3)]
            trees += [chow_liu(random_spd(rng, p)).tree for _ in range(3)]
        for tree in trees:
            position, parent_position, parent_edge = tree.bfs_order
            assert not any(a.flags.writeable for a in tree.bfs_order)
            assert sorted(position.tolist()) == list(range(p))
            order = np.argsort(position)
            assert order[0] == 0
            assert parent_position.shape == parent_edge.shape == (p - 1,)
            adj = adjacency(tree)
            for k in range(1, p):
                parent = int(parent_position[k - 1])
                assert parent < k
                child, above = int(order[k]), int(order[parent])
                assert above in adj[child]
                assert tree.edges[parent_edge[k - 1]] == (min(child, above), max(child, above))


class TestEdgeSetEqual:
    # Normalized, sorted edge tuples make equal edge sets compare equal.
    def test_equal(self):
        a = SpanningTree(3, ((0, 1), (1, 2)))
        b = SpanningTree(3, ((2, 1), (1, 0)))
        assert a.edges == b.edges

    def test_different(self):
        a = SpanningTree(3, ((0, 1), (1, 2)))
        b = SpanningTree(3, ((0, 2), (1, 2)))
        assert a.edges != b.edges


class TestPruferDecode:
    def test_two_vertices(self):
        assert prufer_decode((), 2) == ((0, 1),)

    def test_enumerates_all_labelled_trees(self):
        for p, expected in ((3, 3), (4, 16)):
            seen = {
                frozenset(prufer_decode(seq, p))
                for seq in itertools.product(range(p), repeat=p - 2)
            }
            assert len(seen) == expected

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            prufer_decode((0,), 2)

    def test_rejects_fewer_than_two_vertices(self):
        with pytest.raises(ValueError, match="^need at least two vertices, got 1$"):
            prufer_decode([], 1)

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError, match="range"):
            prufer_decode((3,), 3)

    def test_rejects_non_integer_entry_by_name(self):
        for entry in (0.7, np.float64(2.9)):
            with pytest.raises(ValueError, match="^sequence entry must be an integer, got "):
                prufer_decode([entry], 3)
        assert prufer_decode([np.int64(2)], 3) == prufer_decode([2], 3)


class TestTreeCovariance:
    def test_chain_path_product(self):
        # Chain 0-1-2; the non-edge entry becomes the product 0.9 * 0.8.
        # (The originally stated input with rho_02 = 0.1 is indefinite;
        # 0.6 is a valid stand-in and does not affect the path product.)
        sigma = corr3(0.9, 0.8, 0.6)
        chain = SpanningTree(3, ((0, 1), (1, 2)))
        tilde = tree_covariance(sigma, chain)
        assert tilde.entries[0, 2] == pytest.approx(0.72, abs=1e-12)

    def test_preserves_variances_and_edge_covariances_bitwise(self):
        sigma = random_spd(np.random.default_rng(5), 6)
        tree = random_tree(np.random.default_rng(6), 6)
        tilde = tree_covariance(sigma, tree)
        assert np.array_equal(np.diag(tilde.entries), np.diag(sigma.entries))
        for u, v in tree.edges:
            assert tilde.entries[u, v] == sigma.entries[u, v]

    def test_star_example(self):
        entries = np.eye(4)
        entries[0, 1:] = 0.5
        entries[1:, 0] = 0.5
        star = SpanningTree(4, ((0, 1), (0, 2), (0, 3)))
        tilde = tree_covariance(CovMatrix(entries), star)
        for u, v in ((1, 2), (1, 3), (2, 3)):
            assert tilde.entries[u, v] == pytest.approx(0.25, abs=1e-12)

    def test_fixed_point_on_tree_structured_input(self):
        sigma = corr3(0.9, 0.8, 0.72)
        chain = SpanningTree(3, ((0, 1), (1, 2)))
        tilde = tree_covariance(sigma, chain)
        np.testing.assert_allclose(tilde.entries, sigma.entries, atol=1e-14)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_marginal_matching_and_precision_sparsity(self, seed, p):
        rng = np.random.default_rng(seed)
        sigma = random_spd(rng, p)
        tree = random_tree(rng, p)
        tilde = tree_covariance(sigma, tree)
        assert np.max(np.abs(np.diag(tilde.entries) - np.diag(sigma.entries))) <= 1e-12
        for u, v in tree.edges:
            assert abs(tilde.entries[u, v] - sigma.entries[u, v]) <= 1e-12
        precision = np.linalg.inv(tilde.entries)
        edge_set = set(tree.edges)
        for u in range(p):
            for v in range(u + 1, p):
                if (u, v) not in edge_set:
                    assert abs(precision[u, v]) < 1e-9

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.integers(2, 12))
    def test_matches_per_pair_path_product(self, seed, p):
        # Reference: walk the tree path of every pair and multiply its edge
        # correlations. Only the order of the products differs.
        rng = np.random.default_rng(seed)
        sigma = random_spd(rng, p)
        tree = random_tree(rng, p)
        s = sigma.entries
        std = np.sqrt(np.diag(s))
        adj = adjacency(tree)
        expected = np.empty((p, p))
        for root in range(p):
            prod = {root: 1.0}
            stack = [root]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in prod:
                        prod[y] = prod[x] * s[x, y] / (std[x] * std[y])
                        stack.append(y)
            expected[root] = [prod[v] * std[root] * std[v] for v in range(p)]
        tilde = tree_covariance(sigma, tree).entries
        np.testing.assert_allclose(tilde, expected, rtol=1e-13, atol=0.0)

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError, match="vertex count"):
            tree_covariance(CovMatrix(np.eye(3)), SpanningTree(2, ((0, 1),)))

    def test_an_edge_correlation_rounding_to_one_fails_by_name(self):
        # sqrt(3) * sqrt(3) is 2.9999999999999996, so the matrix factors, but
        # the edge correlation c / (sqrt(3) * sqrt(3)) is exactly 1.0.
        c = np.sqrt(3.0) * np.sqrt(3.0)
        sigma = CovMatrix([[3, c], [c, 3]])
        with pytest.raises(NumericalError, match="^tree covariance lost positive definiteness; "):
            tree_covariance(sigma, SpanningTree(2, [(0, 1)]))
        with pytest.raises(DegenerateCorrelationError):
            chow_liu(sigma)

    @pytest.mark.parametrize(
        "diag, edge_cov, match",
        [
            (np.ones(4), [0.1, 0.2], "need 3 variances"),
            (np.ones(2), [0.1, 0.2], "need 3 variances"),
            (np.ones((3, 1)), [0.1, 0.2], "need 3 variances"),
            (-np.ones(3), [0.1, 0.2], "finite and positive"),
            ([1.0, 0.0, 1.0], [0.1, 0.2], "finite and positive"),
            ([1.0, np.nan, 1.0], [0.1, 0.2], "finite and positive"),
            ([1.0, np.inf, 1.0], [0.1, 0.2], "finite and positive"),
            (np.ones(3), [0.1], "need 2 edge covariances"),
        ],
    )
    def test_completion_rejects_bad_variances_and_edge_counts(self, diag, edge_cov, match):
        chain = SpanningTree(3, ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match=match):
            TreeCovMatrix(chain, diag, edge_cov)


class TestTreeCovMatrix:
    """The closed-form log-determinant, precision and divergence of a tree
    covariance, against dense evaluations of the same matrices."""

    P_VALUES = [2, 10, 80, 160]

    @pytest.mark.parametrize("p", P_VALUES)
    def test_log_det_and_lazy_factor_match_dense(self, p):
        rng = np.random.default_rng(400 + p)
        cov = stiff_tree_cov(rng, random_tree(rng, p))
        assert isinstance(cov, TreeCovMatrix)
        _, logdet = np.linalg.slogdet(cov.entries)
        assert cov.log_det == pytest.approx(logdet, rel=1e-12, abs=1e-12)
        assert "chol" not in vars(cov)
        assert np.array_equal(cov.chol, np.linalg.cholesky(cov.entries))
        assert not cov.chol.flags.writeable

    @pytest.mark.parametrize("p", P_VALUES)
    def test_precision_is_the_inverse(self, p):
        rng = np.random.default_rng(410 + p)
        tree = random_tree(rng, p)
        cov = stiff_tree_cov(rng, tree)
        std = np.sqrt(cov.d)
        precision = np.diag(cov.precision_diag)
        u, v = cov.tree.edge_index
        precision[u, v] = precision[v, u] = cov.precision_edge
        precision /= np.outer(std, std)
        np.testing.assert_allclose(precision @ cov.entries, np.eye(p), atol=1e-9)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_divergence_matches_dense_reference(self, p):
        rng = np.random.default_rng(420 + p)
        for _ in range(3):
            tree1 = chow_liu(random_spd(rng, p))
            tree0 = chow_liu(random_spd(rng, p))
            for p0 in (random_spd(rng, p), tree0):
                expected = reference_kl(p0.entries, tree1.entries)
                assert expected > 1e-6
                assert kl_gaussian(p0, tree1) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_divergence_matches_dense_reference_at_stiff_edges(self, p):
        # At |rho| = 0.9999 one ulp of rho moves 1 / (1 - rho^2) by 1e4 ulp,
        # so every float evaluation carries ~1e-12 relative error: against a
        # 40-digit evaluation both this reference and the closed form erred
        # by up to 1.8e-12. The tolerance allows for both.
        rng = np.random.default_rng(425 + p)
        for _ in range(3):
            tree1 = stiff_tree_cov(rng, random_tree(rng, p))
            tree0 = stiff_tree_cov(rng, random_tree(rng, p))
            for p0 in (random_spd(rng, p), tree0):
                expected = reference_kl(p0.entries, tree1.entries)
                assert expected > 1e-6
                assert kl_gaussian(p0, tree1) == pytest.approx(expected, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_exact_tree_against_its_fit_agrees_with_dense_path(self, p):
        rng = np.random.default_rng(430 + p)
        for _ in range(4):
            tree = random_tree(rng, p)
            rho = rng.uniform(0.5, 0.9999, size=p - 1) * rng.choice([-1.0, 1.0], size=p - 1)
            rho[: (p - 1) // 4] = 0.9999
            std = rng.uniform(0.3, 3.0, size=p)
            corr = TreeCovMatrix(tree, np.ones(p), rho).entries
            exact = CovMatrix(corr * np.outer(std, std))
            fit = tree_covariance(exact, tree)
            assert abs(kl_gaussian(exact, fit) - dense_kl(exact, fit)) <= 1e-10

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12])
    def test_perturbed_tree_pairs_agree_with_dense_path(self, p, delta):
        # Near-zero divergences: the closed form alone can land below the
        # clamp, so these exercise the fallback to the dense evaluation.
        rng = np.random.default_rng(440 + p)
        for _ in range(4):
            tree = random_tree(rng, p)
            base = stiff_tree_cov(rng, tree)
            d = base.d * (1.0 + delta * rng.standard_normal(p))
            rho = np.clip(base.rho * (1.0 + delta * rng.standard_normal(p - 1)), -0.99995, 0.99995)
            other = tree_cov_from(tree, d, rho)
            for p0, p1 in ((base, other), (other, base), (CovMatrix(other.entries), base)):
                expected = dense_kl(p0, p1)
                assert abs(kl_gaussian(p0, p1) - expected) <= 1e-10

    def test_factors_are_computed_only_within_roundoff_of_zero(self):
        rng = np.random.default_rng(450)
        tree = random_tree(rng, 40)
        base = stiff_tree_cov(rng, tree)
        far = tree_cov_from(tree, base.d * 2.0, base.rho)
        assert kl_gaussian(base, far) > 0.1
        assert "chol" not in vars(base) and "chol" not in vars(far)
        near = tree_cov_from(tree, base.d * (1.0 + 1e-12), base.rho)
        assert kl_gaussian(base, near) == dense_kl(base, near)
        assert "chol" in vars(base) and "chol" in vars(near)

    def test_validation(self):
        tree = SpanningTree(2, ((0, 1),))
        ok = TreeCovMatrix(tree, [1.0, 1.0], [0.5])
        assert ok.log_det == pytest.approx(np.log(0.75), abs=1e-15)
        # |rho| >= 1, or no rho at all, is exactly a lost positive definiteness.
        for d, edge_cov in (
            ([1.0, 1.0], [1.0]),
            ([1.0, 1.0], [-1.0]),
            ([1.0, 4.0], [-2.0]),
            ([1.0, 4.0], [2.5]),
            ([1.0, 1.0], [np.inf]),
            ([1.0, 1.0], [np.nan]),
        ):
            with pytest.raises(NotPositiveDefiniteError):
                TreeCovMatrix(tree, d, edge_cov)
        for d in ([1.0, 0.0], [1.0, -1.0], [1.0, np.inf], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="finite and positive"):
                TreeCovMatrix(tree, d, [0.0])
        with pytest.raises(ValueError, match="need 2 variances"):
            TreeCovMatrix(tree, np.eye(2), [0.5])
        with pytest.raises(ValueError, match="need 1 edge covariances"):
            TreeCovMatrix(tree, [1.0, 1.0], 0.5)

    def test_entries_are_not_a_constructor_argument(self):
        # The 0-2 entry of this indefinite matrix is not the chain's path
        # product; there is no way to pass it in as a tree covariance.
        chain = SpanningTree(3, ((0, 1), (1, 2)))
        entries = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(TypeError):
            TreeCovMatrix(entries, chain)
        with pytest.raises(TypeError):
            TreeCovMatrix(chain, np.ones(3), [0.9, 0.9], entries=entries)

    def test_parameters_are_copied_read_only(self):
        chain = SpanningTree(3, ((0, 1), (1, 2)))
        d = np.array([1.0, 4.0, 9.0])
        edge_cov = np.array([1.0, -3.0])
        cov = TreeCovMatrix(chain, d, edge_cov)
        assert d.flags.writeable and edge_cov.flags.writeable
        d[0] = edge_cov[0] = 0.0
        assert np.array_equal(cov.d, [1.0, 4.0, 9.0])
        assert np.array_equal(cov.edge_cov, [1.0, -3.0])
        np.testing.assert_array_equal(cov.rho, [0.5, -0.5])
        expected = np.array([[1.0, 1.0, -0.75], [1.0, 4.0, -3.0], [-0.75, -3.0, 9.0]])
        np.testing.assert_allclose(cov.entries, expected, rtol=1e-15)
        for arr in (cov.entries, cov.d, cov.edge_cov, cov.rho):
            assert not arr.flags.writeable


class TestPartialSelection:
    """chow_liu orders only the heaviest candidates; its tree must equal the
    one from a full stable sort of every pair."""

    @pytest.mark.parametrize("p", [2, 3, 10, 17, 18, 30, 80, 160])
    def test_random_inputs_match_full_sort(self, p):
        rng = np.random.default_rng(500 + p)
        for _ in range(3):
            sigma = random_spd(rng, p)
            assert chow_liu(sigma).tree.edges == sorted_kruskal_tree(sigma)

    @pytest.mark.parametrize("p", [20, 40, 80])
    def test_tie_heavy_inputs_match_full_sort(self, p):
        rng = np.random.default_rng(510 + p)
        diagonal = np.diag(rng.uniform(0.5, 2.0, size=p))
        all_equal = np.full((p, p), 0.3) + 0.7 * np.eye(p)
        block = np.arange(p) % 4
        block_equal = np.where(block[:, None] == block[None, :], 0.6, 0.1) + 0.4 * np.eye(p)
        for entries in (diagonal, all_equal, block_equal):
            sigma = CovMatrix(entries)
            assert chow_liu(sigma).tree.edges == sorted_kruskal_tree(sigma)

    def test_dominant_clique_widens_the_candidate_set(self, monkeypatch):
        # 30 vertices share a strong factor: their 435 edges outrank every
        # other pair, yet span only 30 of the 40 vertices, so the first 320
        # candidates cannot complete the tree. A widened scan resumes from
        # the forest already accepted and passes no other candidate again.
        rng = np.random.default_rng(520)
        p, clique = 40, 30
        loading = np.zeros(p)
        loading[:clique] = rng.uniform(2.0, 4.0, size=clique)
        noise = random_spd(rng, p).entries
        sigma = CovMatrix(np.outer(loading, loading) + noise)
        weights = _upper_pair_weights(sigma)
        in_clique = np.triu_indices(p, 1)[1] < clique
        assert weights[in_clique].min() > weights[~in_clique].max()
        expected = sorted_kruskal_tree(sigma)
        assert chow_liu(sigma).tree.edges == expected  # interns the tree
        scans = []
        kruskal = treecov.tree._kruskal

        def spy(p, us, vs):
            pairs = list(zip(us, vs))
            accepted = kruskal(p, us, vs)
            scans.append((pairs, [pairs[i] for i in accepted]))
            return accepted

        monkeypatch.setattr(treecov.tree, "_kruskal", spy)
        assert chow_liu(sigma).tree.edges == expected
        assert len(scans[0][0]) == 8 * p and len(scans) >= 2
        passed = set()
        forest = []
        for pairs, accepted in scans:
            assert pairs[: len(forest)] == forest
            fresh = pairs[len(forest):]
            assert len(set(fresh)) == len(fresh) and not passed & set(fresh)
            passed |= set(fresh)
            forest = accepted


class TestUpperPairWeights:
    """chow_liu ranks exactly ``_upper_pair_weights(sigma)``, bit for bit, and
    those weights match the scalar per-pair reference to a few ulp."""

    @staticmethod
    def weights_of(sigma: CovMatrix, monkeypatch) -> np.ndarray:
        seen = []
        original = treecov.tree._heaviest_first

        def spy(weights, k):
            seen.append(weights.copy())
            return original(weights, k)

        monkeypatch.setattr(treecov.tree, "_heaviest_first", spy)
        chow_liu(sigma)
        return seen[0]

    def assert_ranked_weights(self, sigma: CovMatrix, monkeypatch) -> None:
        ranked = self.weights_of(sigma, monkeypatch)
        assert ranked.tobytes() == _upper_pair_weights(sigma).tobytes()
        # numpy's log1p and the C library's may round differently, by an ulp.
        np.testing.assert_allclose(
            ranked, scalar_pair_weights(sigma), rtol=4 * np.finfo(float).eps, atol=0
        )

    @pytest.mark.parametrize("p", [2, 3, 10, 80, 160])
    def test_random_inputs(self, p, monkeypatch):
        rng = np.random.default_rng(700 + p)
        for _ in range(3):
            self.assert_ranked_weights(random_spd(rng, p), monkeypatch)

    def test_tie_heavy_inputs(self, monkeypatch):
        p = 20
        rng = np.random.default_rng(710)
        block = np.arange(p) % 4
        for entries in (
            np.diag(rng.uniform(0.5, 2.0, size=p)),
            np.full((p, p), 0.3) + 0.7 * np.eye(p),
            np.where(block[:, None] == block[None, :], 0.6, 0.1) + 0.4 * np.eye(p),
        ):
            self.assert_ranked_weights(CovMatrix(entries), monkeypatch)

    def test_correlations_just_inside_the_degenerate_bound(self, monkeypatch):
        near_one = np.nextafter(1.0 - 1e-12, 0.0)
        entries = np.eye(4)
        entries[0, 2] = entries[2, 0] = near_one
        entries[1, 3] = entries[3, 1] = -near_one
        self.assert_ranked_weights(CovMatrix(entries), monkeypatch)

    def test_degenerate_pair_raises_the_matrix_form_error(self):
        # Two degenerate pairs; the weights and the fit both name the first
        # in (u, v) order.
        near_one = 1.0 - 1e-13
        entries = np.eye(4)
        entries[1, 2] = entries[2, 1] = near_one
        entries[0, 3] = entries[3, 0] = -near_one
        message = f"correlation {-near_one!r} between 0 and 3 is numerically degenerate"
        for fn in (_upper_pair_weights, chow_liu):
            with pytest.raises(DegenerateCorrelationError) as excinfo:
                fn(CovMatrix(entries))
            assert str(excinfo.value) == message


class TestInternedTrees:
    """A refit of the same edge set returns the tree already validated."""

    @staticmethod
    def count_validations(monkeypatch) -> list[int]:
        calls = []
        original = SpanningTree.__post_init__

        def spy(self):
            calls.append(self.num_vertices)
            original(self)

        monkeypatch.setattr(SpanningTree, "__post_init__", spy)
        return calls

    def test_repeated_fit_returns_the_same_tree_validated_once(self, monkeypatch):
        treecov.tree._interned_tree.cache_clear()
        validations = self.count_validations(monkeypatch)
        sigma = random_spd(np.random.default_rng(720), 12)
        first = chow_liu(sigma)
        order = first.tree.bfs_order
        second = chow_liu(CovMatrix(sigma.entries.copy()))
        assert second.tree is first.tree
        assert second.tree.bfs_order is order
        assert validations == [12]
        assert np.array_equal(second.entries, first.entries)

    def test_traced_layers_are_still_called_per_fit(self, monkeypatch):
        # Per-layer tracing wraps tree_covariance and the widening test wraps
        # _kruskal, both at the module attribute chow_liu looks up.
        calls = {"tree_covariance": 0, "_kruskal": 0}
        for name in calls:
            original = getattr(treecov.tree, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(treecov.tree, name, counting)
        sigma = random_spd(np.random.default_rng(721), 10)
        for _ in range(3):
            chow_liu(sigma)
        assert calls["tree_covariance"] == 3
        assert calls["_kruskal"] >= 3

    def test_cache_is_bounded(self):
        rng = np.random.default_rng(722)
        for _ in range(20):
            chow_liu(random_spd(rng, 6))
        info = treecov.tree._interned_tree.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 16


class TestChowLiu:
    def test_two_vertices(self):
        sigma = CovMatrix(np.array([[1.0, 0.4], [0.4, 2.0]]))
        fit = chow_liu(sigma)
        assert fit.tree.edges == ((0, 1),)
        assert np.array_equal(fit.entries, sigma.entries)
        assert kl_gaussian(sigma, fit) == 0.0

    def test_diagonal_tie_break_gives_star_at_zero(self):
        fit = chow_liu(CovMatrix(np.diag([1.0, 2.0, 3.0, 4.0])))
        assert fit.tree.edges == ((0, 1), (0, 2), (0, 3))

    def test_three_node_example_against_manual_enumeration(self):
        # All three spanning trees evaluated by hand form the oracle. The
        # stated example's rho_02 = 0.1 is not positive definite; 0.6 keeps
        # the matrix valid and the structure intact.
        sigma = corr3(0.9, 0.8, 0.6)
        candidates = {}
        for edges in (((0, 1), (1, 2)), ((0, 1), (0, 2)), ((0, 2), (1, 2))):
            tree = SpanningTree(3, edges)
            candidates[edges] = kl_gaussian(sigma, tree_covariance(sigma, tree))
        best_edges = min(candidates, key=lambda e: candidates[e])
        fit = chow_liu(sigma)
        assert best_edges == ((0, 1), (1, 2))
        assert fit.tree.edges == best_edges
        assert kl_gaussian(sigma, fit) > 0.0
        assert kl_gaussian(sigma, fit) == pytest.approx(candidates[best_edges], abs=1e-12)

    def test_consistent_chain_reaches_zero(self):
        # Unit-variance chain whose 0-2 correlation already is the path product.
        sigma = corr3(0.9, 0.8, 0.72)
        fit = chow_liu(sigma)
        assert fit.tree.edges == ((0, 1), (1, 2))
        assert kl_gaussian(sigma, fit) <= 1e-12
        assert kl_gaussian(sigma, CovMatrix(fit.entries)) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError, match="at least two"):
            chow_liu(CovMatrix(np.eye(1)))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.integers(3, 8))
    def test_kl_agrees_with_full_divergence(self, seed, p):
        sigma = random_spd(np.random.default_rng(seed), p)
        fit = chow_liu(sigma)
        assert abs(kl_gaussian(sigma, fit) - kl_gaussian(sigma, CovMatrix(fit.entries))) < 1e-9

    @pytest.mark.parametrize("p", [10, 40, 80, 160])
    def test_exact_tree_divergence_is_roundoff(self, p):
        # Tree-structured input with unequal variances and some edges at
        # |rho| = 0.9999: the true divergence is zero, so the fit's O(p)
        # divergence must be roundoff, inside 1e-9 (below -1e-12 it raises).
        rng = np.random.default_rng(p)
        tree = random_tree(rng, p)
        rho = rng.uniform(0.5, 0.9999, size=p - 1) * rng.choice([-1.0, 1.0], size=p - 1)
        rho[: (p - 1) // 4] = 0.9999
        std = rng.uniform(0.3, 3.0, size=p)
        corr = TreeCovMatrix(tree, np.ones(p), rho).entries
        sigma = CovMatrix(corr * np.outer(std, std))
        fit = chow_liu(sigma)
        assert fit.tree.edges == tree.edges
        assert 0.0 <= kl_gaussian(sigma, fit) <= 1e-9

    def test_rejects_degenerate_correlation(self):
        near_one = 1.0 - 1e-13
        with pytest.raises(DegenerateCorrelationError):
            chow_liu(CovMatrix(np.array([[1.0, near_one], [near_one, 1.0]])))

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6), st.integers(3, 7))
    def test_idempotent(self, seed, p):
        sigma = random_spd(np.random.default_rng(seed), p)
        first = chow_liu(sigma)
        second = chow_liu(first)
        assert kl_gaussian(first, second) <= 1e-9
        assert abs(
            total_mi_weight(first, first.tree) - total_mi_weight(first, second.tree)
        ) <= 1e-9

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6), st.integers(3, 7))
    def test_edge_set_invariant_under_diagonal_scaling(self, seed, p):
        rng = np.random.default_rng(seed)
        sigma = random_spd(rng, p)
        scale = rng.uniform(0.2, 5.0, size=p)
        scaled = CovMatrix(sigma.entries * np.outer(scale, scale))
        assert chow_liu(sigma).tree.edges == chow_liu(scaled).tree.edges

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6), st.integers(3, 7))
    def test_weight_kl_duality(self, seed, p):
        # Higher total MI weight means lower approximation KL; the gap in
        # weight equals the gap in KL exactly.
        rng = np.random.default_rng(seed)
        sigma = random_spd(rng, p)
        t1, t2 = random_tree(rng, p), random_tree(rng, p)
        weight_gap = total_mi_weight(sigma, t1) - total_mi_weight(sigma, t2)
        kl_gap = kl_gaussian(sigma, tree_covariance(sigma, t2)) - kl_gaussian(
            sigma, tree_covariance(sigma, t1)
        )
        assert abs(weight_gap - kl_gap) <= 1e-9


class TestBruteForce:
    def test_matches_chow_liu_on_seeded_instances(self):
        for seed in range(8):
            p = 3 + seed % 4
            sigma = random_spd(np.random.default_rng(seed), p)
            _, oracle_kl = brute_force_optimal_tree(sigma)
            assert abs(kl_gaussian(sigma, chow_liu(sigma)) - oracle_kl) <= 1e-9

    def test_two_vertices(self):
        sigma = CovMatrix(np.array([[1.0, 0.4], [0.4, 2.0]]))
        tree, _ = brute_force_optimal_tree(sigma)
        assert tree.edges == ((0, 1),)

    def test_tie_break_is_lexicographic(self):
        # Diagonal input makes every tree equally good; the edge-list
        # minimum is the star at vertex 0.
        tree, _ = brute_force_optimal_tree(CovMatrix(np.diag([1.0, 2.0, 3.0, 4.0])))
        assert tree.edges == ((0, 1), (0, 2), (0, 3))

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="p <= 8"):
            brute_force_optimal_tree(CovMatrix(np.eye(9)))
