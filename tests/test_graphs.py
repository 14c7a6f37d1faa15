"""Graph utilities: edge-list IO, components, fold partitions, label metrics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array

from netcv.graphs import (check_adjacency, check_membership, confusion_matrix,
                          hamming_up_to_permutation, largest_connected_component,
                          load_edge_list, partition_nodes, write_edge_list)


# ---------------------------------------------------------------- oracles

def hamming_perm_oracle(g1, g2, k):
    """Min disagreements over all relabelings, by exhaustive permutation."""
    best = len(g1)
    for perm in itertools.permutations(range(1, k + 1)):
        relabeled = np.array([perm[c - 1] for c in g1])
        best = min(best, int(np.sum(relabeled != g2)))
    return best


# ---------------------------------------------------------------- validation

def test_check_adjacency_accepts_valid():
    A = np.zeros((3, 3), dtype=np.int8)
    A[0, 1] = A[1, 0] = 1
    check_adjacency(A)


def test_check_adjacency_rejects_asymmetric():
    A = np.zeros((3, 3), dtype=np.int8)
    A[0, 1] = 1
    with pytest.raises(ValueError):
        check_adjacency(A)


def test_check_adjacency_rejects_self_loop():
    A = np.eye(3, dtype=np.int8)
    with pytest.raises(ValueError):
        check_adjacency(A)


@pytest.mark.parametrize("value", [2, -1, 0.5])
def test_check_adjacency_rejects_non_binary(value):
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = value
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        check_adjacency(A)


def _csr(rows, cols, vals, shape=(3, 3)):
    return csr_array((np.asarray(vals, dtype=float), (rows, cols)), shape=shape)


@pytest.mark.parametrize("value", [2, -1, 0.5])
def test_check_adjacency_rejects_non_binary_csr(value):
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        check_adjacency(_csr([0, 1], [1, 0], [value, value]))


def test_check_adjacency_rejects_asymmetric_csr():
    with pytest.raises(ValueError, match="must be symmetric"):
        check_adjacency(_csr([0], [1], [1]))


def test_check_adjacency_rejects_self_loop_csr():
    with pytest.raises(ValueError, match="zero diagonal"):
        check_adjacency(_csr([1], [1], [1]))


@pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
def test_check_adjacency_rejects_non_square(shape):
    with pytest.raises(ValueError, match=r"must be square, got shape \(%d, %d\)" % shape):
        check_adjacency(np.zeros(shape))
    with pytest.raises(ValueError, match=r"must be square, got shape \(%d, %d\)" % shape):
        check_adjacency(_csr([], [], [], shape=shape))


def test_check_adjacency_returns_canonical_csr():
    # stored zeros count as 0, duplicates are summed, the input is untouched
    A = _csr([0, 1, 2, 2, 1, 1], [1, 0, 1, 1, 2, 2], [1, 1, 0, 1, 0.5, 0.5])
    before = A.copy()
    C = check_adjacency(A)
    assert isinstance(C, csr_array) and C.dtype == float
    assert C.has_canonical_format and C.nnz == 4
    assert np.array_equal(C.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.array_equal(A.data, before.data)
    assert np.array_equal(check_adjacency(C.toarray().astype(bool)).toarray(),
                          C.toarray())
    stored_zero = _csr([0, 1], [1, 0], [1, 0])
    assert stored_zero.nnz == 2
    with pytest.raises(ValueError, match="must be symmetric"):
        check_adjacency(stored_zero)


def test_check_membership_bounds():
    check_membership(np.array([1, 2, 1]), 2)
    with pytest.raises(ValueError):
        check_membership(np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        check_membership(np.array([1, 3]), 2)


# ---------------------------------------------------------------- edge lists

def test_load_edge_list_basic(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("a b\nb c\n\n# comment\na c\n")
    A, ids = load_edge_list(p)
    assert ids == ["a", "b", "c"]
    assert A.shape == (3, 3)
    assert A.sum() == 6  # triangle, both directions


def test_load_edge_list_drops_self_loops_and_duplicates(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 0\n0 1\n1 0\n0 1\n")
    A, _ = load_edge_list(p)
    assert A[0, 0] == 0
    assert A.sum() == 2


def test_load_edge_list_malformed_line_reports_lineno(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list(p)


def test_load_edge_list_empty_rejected(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="empty"):
        load_edge_list(p)


def test_load_edge_list_asymmetric_rejected_when_not_symmetrizing(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n")
    with pytest.raises(ValueError, match="not symmetric"):
        load_edge_list(p, symmetrize=False)
    p.write_text("0 1\n1 0\n")
    A, _ = load_edge_list(p, symmetrize=False)
    assert A.sum() == 2


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    n = 20
    A = (rng.random((n, n)) < 0.4).astype(np.int8)
    A = np.triu(A, 1)
    A = A + A.T
    for i in range(n - 1):  # no isolated nodes, so nothing is lost
        A[i, i + 1] = A[i + 1, i] = 1
    p = tmp_path / "g.txt"
    write_edge_list(A, p)
    B, ids = load_edge_list(p)
    # loaded index i is the original node int(ids[i])
    perm = np.array([int(tok) for tok in ids])
    assert sorted(perm) == list(range(n))
    assert np.array_equal(A[np.ix_(perm, perm)], B)


# ---------------------------------------------------------------- components

def test_lcc_picks_largest():
    # two components: {0,1,2} path and {3,4} edge
    A = np.zeros((5, 5), dtype=np.int8)
    for i, j in [(0, 1), (1, 2), (3, 4)]:
        A[i, j] = A[j, i] = 1
    sub, nodes = largest_connected_component(A)
    assert list(nodes) == [0, 1, 2]
    assert sub.shape == (3, 3)


def test_lcc_tie_breaks_to_smallest_node():
    A = np.zeros((4, 4), dtype=np.int8)
    for i, j in [(0, 2), (1, 3)]:
        A[i, j] = A[j, i] = 1
    _, nodes = largest_connected_component(A)
    assert list(nodes) == [0, 2]


def test_lcc_isolated_nodes():
    A = np.zeros((3, 3), dtype=np.int8)
    A[1, 2] = A[2, 1] = 1
    _, nodes = largest_connected_component(A)
    assert list(nodes) == [1, 2]


# ---------------------------------------------------------------- partitions

def test_partition_sizes_and_coverage():
    rng = np.random.default_rng(0)
    folds = partition_nodes(10, 3, rng)
    sizes = sorted(len(f) for f in folds)
    assert sizes == [3, 3, 4]
    allnodes = np.concatenate(folds)
    assert sorted(allnodes) == list(range(10))


def test_partition_deterministic():
    a = partition_nodes(50, 4, np.random.default_rng(9))
    b = partition_nodes(50, 4, np.random.default_rng(9))
    for fa, fb in zip(a, b):
        assert np.array_equal(fa, fb)


def test_partition_rejects_bad_V():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        partition_nodes(5, 1, rng)
    with pytest.raises(ValueError):
        partition_nodes(5, 6, rng)


@given(n=st.integers(2, 60), V=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_partition_properties(n, V, seed):
    if V > n:
        return
    folds = partition_nodes(n, V, np.random.default_rng(seed))
    assert len(folds) == V
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    flat = np.concatenate(folds)
    assert sorted(flat) == list(range(n))
    for f in folds:
        assert np.all(np.diff(f) > 0)  # sorted, unique


# ---------------------------------------------------------------- label metrics

def test_confusion_matrix_small():
    g1 = np.array([1, 1, 2, 2])
    g2 = np.array([2, 2, 1, 2])
    C = confusion_matrix(g1, g2)
    assert C[0, 1] == 2  # both g1=1 nodes land in g2=2
    assert C[1, 0] == 1
    assert C[1, 1] == 1
    assert C.sum() == 4


def test_hamming_zero_on_relabeling():
    g = np.array([1, 2, 3, 1, 2, 3])
    relabeled = np.array([3, 1, 2, 3, 1, 2])
    assert hamming_up_to_permutation(g, relabeled) == 0


def test_hamming_counts_disagreements():
    g1 = np.array([1, 1, 1, 2, 2, 2])
    g2 = np.array([1, 1, 2, 2, 2, 2])
    assert hamming_up_to_permutation(g1, g2) == 1


def test_hamming_different_label_counts():
    g1 = np.array([1, 1, 2, 2])
    g2 = np.array([1, 2, 3, 4])
    # best relabeling keeps one node per g1 block wrong
    assert hamming_up_to_permutation(g1, g2) == 2


@given(st.integers(1, 4), st.integers(1, 12), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_hamming_matches_permutation_oracle(k, n, seed):
    if n < k:
        return
    rng = np.random.default_rng(seed)
    g1 = rng.integers(1, k + 1, size=n)
    g2 = rng.integers(1, k + 1, size=n)
    assert hamming_up_to_permutation(g1, g2) == hamming_perm_oracle(g1, g2, k)


def test_hamming_symmetric():
    rng = np.random.default_rng(1)
    g1 = rng.integers(1, 4, size=30)
    g2 = rng.integers(1, 4, size=30)
    assert hamming_up_to_permutation(g1, g2) == hamming_up_to_permutation(g2, g1)
