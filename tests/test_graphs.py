"""Graph utilities: edge-list IO, components, fold partitions, label metrics."""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array, csr_matrix

import netcv.graphs
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


def load_edge_list_oracle(path):
    """The line-by-line dense loader that ``load_edge_list`` replaced."""
    ids = {}
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ValueError(
                    f"{path}: line {lineno}: expected two node tokens, got {len(tokens)}"
                )
            pair = []
            for tok in tokens:
                if tok not in ids:
                    ids[tok] = len(ids)
                pair.append(ids[tok])
            edges.append(pair)
    if not ids:
        raise ValueError(f"{path}: empty edge list")
    n = len(ids)
    i, j = np.array(edges, dtype=np.int64).T
    keep = i != j
    i, j = i[keep], j[keep]
    A = np.zeros((n, n), dtype=np.int8)
    A[i, j] = 1
    A[j, i] = 1
    node_ids = [None] * n
    for tok, idx in ids.items():
        node_ids[idx] = tok
    return A, node_ids


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


def test_check_adjacency_checks_values_before_symmetry():
    # the symmetry check compares patterns alone, so the values come first
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        check_adjacency(_csr([0], [1], [2]))
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        check_adjacency(_csr([0, 1], [1, 0], [1, 2]))


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


def test_check_adjacency_returns_canonical_input_as_is():
    C = _csr([0, 1, 1, 2], [1, 0, 2, 1], [1, 1, 1, 1])
    assert C.has_canonical_format
    assert check_adjacency(C) is C


def _stored(data, indices, indptr):
    """3 x 3 CSR array holding exactly these arrays, not canonicalised."""
    return csr_array((data, indices, indptr), shape=(3, 3))


@pytest.mark.parametrize("A", [
    _stored([0.5, 0.5, 1.0, 1.0, 1.0], [1, 1, 0, 2, 1], [0, 2, 4, 5]),  # duplicates
    _stored([1.0, 0.0, 1.0, 1.0, 1.0], [1, 2, 0, 2, 1], [0, 2, 4, 5]),  # explicit zero
    _stored(np.ones(4, dtype=np.int64), [1, 0, 2, 1], [0, 1, 3, 4]),     # int dtype
    csr_matrix(_csr([0, 1, 1, 2], [1, 0, 2, 1], [1, 1, 1, 1])),          # matrix type
], ids=["duplicates", "explicit-zero", "int", "csr_matrix"])
def test_check_adjacency_copies_any_other_input(A):
    before = [x.copy() for x in (A.data, A.indices, A.indptr)]
    C = check_adjacency(A)
    assert isinstance(C, csr_array) and C.dtype == float and C.has_canonical_format
    assert not np.shares_memory(C.data, A.data)
    assert not np.shares_memory(C.indices, A.indices)
    assert np.array_equal(C.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    for x, y in zip(before, (A.data, A.indices, A.indptr)):
        assert np.array_equal(x, y)


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
    assert np.array_equal(A[np.ix_(perm, perm)], B.toarray())


def test_load_edge_list_returns_canonical_csr(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("a b\nb a\nb c\nc c\n")
    A, ids = load_edge_list(p)
    assert ids == ["a", "b", "c"]
    assert isinstance(A, csr_array) and A.dtype == float
    assert A.has_canonical_format and A.nnz == 4
    assert np.array_equal(A.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    C = check_adjacency(A)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(C, name), getattr(A, name))


def test_load_edge_list_skips_byte_order_mark(tmp_path):
    p = tmp_path / "g.txt"
    p.write_bytes("\ufeff0 1\n1 2\n2 0\n".encode("utf-8"))
    A, ids = load_edge_list(p)
    assert ids == ["0", "1", "2"]
    assert np.array_equal(A.toarray(), 1 - np.eye(3))


# Node tokens, separators and line endings that one parse must treat
# exactly as the line-by-line loader did.  "\x0b", "\x0c" and "\x85" split
# tokens but, unlike under str.splitlines, do not end a line; "\r\n" and a
# lone "\r" do.
_TOKENS = ["0", "1", "2", "10", "007", "a", "node_b", "\u00e9", "#x"]
_SEPS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x85"]
_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def edge_list_texts(draw):
    tok = st.sampled_from(_TOKENS)
    sep = st.sampled_from(_SEPS)
    pad = st.sampled_from(["", " ", "\t"])
    lines = []
    edges = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["repeat", "comment", "blank", "bad"]))
        if kind == "edge" or (kind == "repeat" and not edges):
            u, v = draw(tok), draw(tok)
            edges.append((u, v))
            body = u + draw(sep) + v
        elif kind == "repeat":  # an earlier edge again, as listed or reversed
            u, v = draw(st.sampled_from(edges))
            if draw(st.booleans()):
                u, v = v, u
            body = u + draw(sep) + v
        elif kind == "comment":
            body = "#" + draw(st.sampled_from(["", " a b", "x y z", "#"]))
        elif kind == "blank":
            body = ""
        else:  # one token or three
            body = draw(sep).join(draw(st.lists(tok, min_size=1, max_size=3)
                                       .filter(lambda ts: len(ts) != 2)))
        lines.append(draw(pad) + body + draw(pad) + draw(st.sampled_from(_ENDS)))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no newline at the end
    return "".join(lines)


@given(text=edge_list_texts(),
       chunk=st.sampled_from([1, 2, 5, 16, 64, netcv.graphs._READ_CHARS]))
@settings(max_examples=300, deadline=None)
def test_load_edge_list_matches_line_by_line_oracle(tmp_path_factory, text, chunk):
    # a chunk of 1 character reads one line at a time, so ids, comments,
    # blank lines and the "line N" errors all cross chunk ends
    p = tmp_path_factory.mktemp("edges") / "g.txt"
    p.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netcv.graphs, "_READ_CHARS", chunk)
        try:
            want_A, want_ids = load_edge_list_oracle(p)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_edge_list(p)
            assert str(got.value) == str(exc)  # same message, same line number
            return
        A, ids = load_edge_list(p)
    assert ids == want_ids
    assert np.array_equal(A.toarray(), want_A)
    want = csr_array(want_A)  # sorted, each entry once, int32 index arrays
    for name in ("indptr", "indices"):
        assert getattr(A, name).dtype == getattr(want, name).dtype == np.int32
        assert np.array_equal(getattr(A, name), getattr(want, name))


def _write_rows(path, n, degree, rng):
    """Edge list of a uniform random graph, written one row of the upper
    triangle at a time so that no n x n array is ever built."""
    p = degree / (n - 1)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n - 1):
            js = np.unique(rng.integers(i + 1, n, size=rng.binomial(n - i - 1, p)))
            fh.write("".join(f"{i} {j}\n" for j in js.tolist()))


@pytest.fixture(scope="module")
def big_edge_list(tmp_path_factory):
    """A 20,000-node edge list with average degree about 30."""
    path = tmp_path_factory.mktemp("big") / "big.txt"
    _write_rows(path, 20_000, 30, np.random.default_rng(0))
    return path


def _traced_peak(f):
    """f's return value and the peak of its traced allocations, in MiB."""
    tracemalloc.start()
    try:
        out = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


def test_load_edge_list_memory_is_bounded_by_edges(big_edge_list):
    # the peak is about 11 MiB, the loader's own, at the de-duplication of
    # its sorted keys; check_adjacency's int8 pattern transpose adds about
    # 4 MiB to the 7 MiB of CSR arrays returned, where a float transpose
    # reached 14.4 MiB.  SciPy's COO-to-CSR conversion took 17 MiB, a flat
    # token list of the whole file 39 MiB, and a dense int8 A alone would
    # take 381 MiB
    A, peak = _traced_peak(lambda: check_adjacency(load_edge_list(big_edge_list)[0]))
    assert A.shape[0] > 19_900 and 25 < A.nnz / A.shape[0] < 35
    assert peak < 12.5, f"peak {peak:.1f} MiB"


def test_write_edge_list_memory_is_bounded_by_edges(big_edge_list, tmp_path):
    # the peak is about 11 MiB, most of it the upper-triangle copy; one
    # Python line per edge at once took 28 MiB
    A, _ = load_edge_list(big_edge_list)
    _, peak = _traced_peak(lambda: write_edge_list(A, tmp_path / "out.txt"))
    assert peak < 16, f"peak {peak:.1f} MiB"
    B, _ = load_edge_list(tmp_path / "out.txt")
    assert B.nnz == A.nnz


def _random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    A = np.triu((rng.random((n, n)) < p).astype(np.int8), 1)
    return A + A.T


@pytest.mark.parametrize("kind", [csr_array, csr_matrix])
def test_write_edge_list_same_bytes_from_dense_and_sparse(tmp_path, kind):
    def written(M):
        write_edge_list(M, tmp_path / "g.txt")
        return (tmp_path / "g.txt").read_bytes()

    A = _random_graph(30, 0.2, 3)
    iu, ju = np.nonzero(np.triu(A, 1))  # the dense writer's row-major order
    S = kind(A.astype(float))
    S.data[:5] = 0.0  # explicitly stored zeros are not edges
    for block in (1, 7, netcv.graphs._WRITE_EDGES):  # 1 edge: one row per block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netcv.graphs, "_WRITE_EDGES", block)
            assert written(A) == "".join(f"{i} {j}\n" for i, j in zip(iu, ju)).encode()
            assert written(kind(A)) == written(A)
            assert written(S) == written(S.toarray()) != written(A)


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


@pytest.mark.parametrize("kind", [csr_array, csr_matrix])
def test_lcc_sparse_input_matches_dense_and_stays_sparse(kind):
    tie = np.zeros((4, 4), dtype=np.int8)  # two components of size 2
    tie[[0, 2, 1, 3], [2, 0, 3, 1]] = 1
    for A in [tie] + [_random_graph(40, 0.04, seed) for seed in range(5)]:
        sub, nodes = largest_connected_component(A)
        sub_s, nodes_s = largest_connected_component(kind(A))
        assert isinstance(sub, np.ndarray)
        assert isinstance(sub_s, kind) and sub_s.format == "csr"
        assert np.array_equal(nodes_s, nodes)
        assert np.array_equal(sub_s.toarray(), sub)


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


def fold_loop_reference(n, V, rng):
    """The hand-written fold loop that ``partition_nodes`` replaced."""
    perm = rng.permutation(n)
    base, extra = divmod(n, V)
    folds = []
    start = 0
    for v in range(V):
        size = base + (1 if v < extra else 0)
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds


def test_partition_matches_the_fold_loop_bitwise():
    for V in range(2, 10):
        for n in range(V, 200):
            got = partition_nodes(n, V, np.random.default_rng(n))
            want = fold_loop_reference(n, V, np.random.default_rng(n))
            assert [(f.dtype, f.tobytes()) for f in got] == \
                [(f.dtype, f.tobytes()) for f in want]


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


def test_label_metrics_reject_labels_below_one():
    # label 0 would otherwise be counted as the largest label
    with pytest.raises(ValueError, match="labels must be >= 1"):
        confusion_matrix([0, 1, 1, 2], [1, 1, 2, 2])
    with pytest.raises(ValueError, match="labels must be >= 1"):
        hamming_up_to_permutation([1, 1, 2, 2], [1, 0, 2, 2])


def test_hamming_zero_on_relabeling():
    g = np.array([1, 2, 3, 1, 2, 3])
    relabeled = np.array([3, 1, 2, 3, 1, 2])
    assert hamming_up_to_permutation(g, relabeled) == 0


def test_import_leaves_the_assignment_solver_unloaded():
    # scipy.optimize is about a quarter of netcv's import time, and only
    # hamming_up_to_permutation needs it
    src = os.path.dirname(os.path.dirname(netcv.__file__))
    code = ("import sys, netcv, netcv.cli, netcv.harness; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert out.stdout.strip() == "False"


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
