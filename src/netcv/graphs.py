"""Graph storage, edge-list I/O, node partitioning and label agreement.

An adjacency matrix is symmetric, binary ({0,1}) and has a zero
diagonal.  ``check_adjacency`` accepts it dense or as any SciPy sparse
matrix and returns the canonical float CSR array that cross-validation
runs on (the input itself when it is already in that form).  The
edge-list loader parses a file straight into that CSR form, never
through an n x n array; the edge-list writer and the largest-component
helper take dense or sparse input and cost O(edges) on sparse input.
Node memberships are integer vectors with labels in {1..K}.  All
randomness is drawn from an explicitly passed ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array, issparse, triu
from scipy.sparse.csgraph import connected_components


def check_adjacency(A) -> csr_array:
    """Raise ValueError unless A is a square symmetric 0/1 matrix with zero
    diagonal; return it as a canonical float CSR array.

    A may be a dense array or any SciPy sparse matrix or array.  A
    float64 ``csr_array`` in canonical format whose stored values are all
    1.0 is checked and returned as is.  Any other input is converted to a
    new array first, and is left unmodified: explicitly stored zeros count
    as 0 and duplicate entries are summed.  Once converted, the checks
    cost O(n + stored entries).
    """
    if not issparse(A):
        A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {A.shape}")
    if not (isinstance(A, csr_array) and A.dtype == np.float64
            and A.has_canonical_format and np.all(A.data == 1.0)):
        A = csr_array(A).astype(float)
        A.sum_duplicates()
        A.eliminate_zeros()
    if not _is_symmetric(A):
        raise ValueError("adjacency matrix must be symmetric")
    if A.diagonal().any():
        raise ValueError("adjacency matrix must have zero diagonal")
    if not np.all(A.data == 1.0):
        raise ValueError("adjacency entries must be 0 or 1")
    return A


def _is_symmetric(A: csr_array) -> bool:
    """Whether a canonical CSR array equals its transpose, entry for entry."""
    T = A.T.tocsr()
    return (np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices)
            and np.array_equal(A.data, T.data))


def check_membership(g: np.ndarray, k: int) -> None:
    """Raise ValueError unless g is a label vector with values in {1..k}."""
    g = np.asarray(g)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("membership must be a non-empty 1-d vector")
    if k < 1 or g.size < k:
        raise ValueError(f"need n >= k >= 1, got n={g.size}, k={k}")
    if g.min() < 1 or g.max() > k:
        raise ValueError(f"labels must lie in 1..{k}")


def load_edge_list(path):
    """Read an undirected edge list into an adjacency matrix.

    The file format is UTF-8 text (a leading byte-order mark is
    skipped) with one edge per line, two whitespace-separated node
    tokens; lines starting with ``#`` and blank lines are ignored.  Node
    tokens may be arbitrary strings and are mapped to indices 0..n-1 in
    order of first appearance.  Every listed edge (i, j) also sets
    (j, i); duplicate edges collapse to a single edge and self-loops are
    dropped.  The file is parsed into one flat token list and then
    integer index arrays, so memory is O(edges).

    Parameters
    ----------
    path : str or Path
        Edge-list file.

    Returns
    -------
    A : scipy.sparse.csr_array of shape (n, n)
        Binary adjacency matrix in the canonical float CSR form that
        ``check_adjacency`` returns.
    node_ids : list of str
        Original token for each node index.
    """
    tokens = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, pair in enumerate(map(str.split, fh), start=1):
            # skip blank lines and lines whose first token starts with "#"
            if len(pair) == 2 and pair[0][0] != "#":
                tokens += pair
            elif pair and pair[0][0] != "#":
                raise ValueError(
                    f"{path}: line {lineno}: expected two node tokens, got {len(pair)}"
                )
    if not tokens:
        raise ValueError(f"{path}: empty edge list")
    node_ids = list(dict.fromkeys(tokens))  # first appearance order
    n = len(node_ids)
    index = dict(zip(node_ids, range(n)))
    # int32 indices, as SciPy picks below 2**31 nodes; fromiter raises past that
    ij = np.fromiter(map(index.__getitem__, tokens), dtype=np.int32, count=len(tokens))
    del tokens, index
    i, j = ij[0::2], ij[1::2]
    keep = i != j
    i, j = i[keep], j[keep]
    i, j = np.concatenate([i, j]), np.concatenate([j, i])
    A = csr_array((np.ones(i.size), (i, j)), shape=(n, n))  # sums duplicates
    A.data[:] = 1.0
    return A, node_ids


def write_edge_list(A, path) -> None:
    """Write the upper-triangle edges of A, one "u v" line per edge in
    row-major order, nodes numbered from 0.

    A may be dense or any SciPy sparse matrix; sparse input is written in
    O(stored entries) and gives the same bytes as its dense form.
    """
    U = triu(A, k=1, format="csr")  # canonical: duplicates summed, indices sorted
    U.eliminate_zeros()
    rows = np.repeat(np.arange(U.shape[0]), np.diff(U.indptr))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i} {j}\n" for i, j in zip(rows.tolist(), U.indices.tolist()))


def largest_connected_component(A):
    """Induced subgraph on the largest connected component.

    A may be dense or any SciPy sparse matrix; sparse input costs
    O(n + stored entries).  Ties between components of equal size are
    broken in favour of the component containing the smallest node id.

    Returns
    -------
    A_sub : ndarray or scipy.sparse CSR
        Adjacency matrix of the component: dense for dense input, CSR
        (of the input's matrix or array type) for sparse input.
    nodes : ndarray
        Original indices of the retained nodes, ascending.
    """
    A = A.tocsr() if issparse(A) else np.asarray(A)
    if A.shape[0] < 1:
        raise ValueError("graph must have at least one node")
    _, labels = connected_components(csr_array(A), directed=False)
    _, first, sizes = np.unique(labels, return_index=True, return_counts=True)
    best = np.lexsort((first, -sizes))[0]
    nodes = np.flatnonzero(labels == best)
    if issparse(A):
        return A[nodes][:, nodes], nodes
    return A[np.ix_(nodes, nodes)], nodes


def partition_nodes(n: int, V: int, rng: np.random.Generator):
    """Uniformly random balanced partition of {0..n-1} into V folds.

    Fold sizes differ by at most one; the first ``n mod V`` folds get
    the extra node.  Deterministic given the generator state.

    Returns a list of V sorted index arrays.
    """
    if not 1 < V <= n:
        raise ValueError(f"need 1 < V <= n, got V={V}, n={n}")
    return [np.sort(f) for f in np.array_split(rng.permutation(n), V)]


def confusion_matrix(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """K1 x K2 table of label co-occurrence counts (labels are 1-based);
    raises ValueError on a label below 1."""
    g1 = np.asarray(g1)
    g2 = np.asarray(g2)
    if g1.shape != g2.shape:
        raise ValueError("membership vectors must have equal length")
    if min(g1.min(), g2.min()) < 1:
        raise ValueError("labels must be >= 1")
    k1, k2 = int(g1.max()), int(g2.max())
    M = np.zeros((k1, k2), dtype=np.int64)
    np.add.at(M, (g1 - 1, g2 - 1), 1)
    return M


def hamming_up_to_permutation(g1: np.ndarray, g2: np.ndarray) -> int:
    """Smallest number of label disagreements over all relabelings.

    Computed as n minus the maximum-agreement assignment on the
    confusion matrix (solved exactly with the Hungarian method), which
    equals the minimum over label permutations of ``#{i: pi(g1_i) != g2_i}``.
    """
    M = confusion_matrix(g1, g2)
    k = max(M.shape)
    square = np.zeros((k, k), dtype=np.int64)
    square[: M.shape[0], : M.shape[1]] = M
    rows, cols = linear_sum_assignment(square, maximize=True)
    agreement = square[rows, cols].sum()
    return int(len(np.asarray(g1)) - agreement)
