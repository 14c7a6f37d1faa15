"""Graph storage, edge-list I/O, node partitioning and label agreement.

An adjacency matrix is symmetric, binary ({0,1}) and has a zero
diagonal.  ``check_adjacency`` accepts it dense or as any SciPy sparse
matrix and returns the canonical float CSR array that cross-validation
runs on (the input itself when it is already in that form).  The
edge-list loader parses a file straight into that CSR form, never
through an n x n array; the edge-list writer and the largest-component
helper take dense or sparse input and cost O(edges) on sparse input.
Both edge-list functions hold one bounded chunk of text at a time.
Node memberships are integer vectors with labels in {1..K}.  All
randomness is drawn from an explicitly passed ``numpy.random.Generator``.
"""

from __future__ import annotations

from itertools import filterfalse

import numpy as np
from scipy.sparse import csr_array, issparse, triu
from scipy.sparse.csgraph import connected_components

_READ_CHARS = 1 << 14  # size hint of one fh.readlines() chunk of an edge list
_WRITE_EDGES = 1 << 12  # edges formatted per block of rows of an edge list


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
    if not np.all(A.data == 1.0):
        raise ValueError("adjacency entries must be 0 or 1")
    if not _is_symmetric(A):
        raise ValueError("adjacency matrix must be symmetric")
    if A.diagonal().any():
        raise ValueError("adjacency matrix must have zero diagonal")
    return A


def _is_symmetric(A: csr_array) -> bool:
    """Whether a canonical CSR array whose stored values are all equal has
    a symmetric pattern: its index arrays are compared with those of the
    transpose of an int8 copy of the pattern."""
    pattern = csr_array((np.ones(A.nnz, dtype=np.int8), A.indices, A.indptr),
                        shape=A.shape)
    T = pattern.T.tocsr()
    return np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices)


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
    dropped.  The file is read in chunks of whole lines (about
    ``_READ_CHARS`` characters each), and each chunk's tokens become
    int32 node indices at once; the CSR arrays come from the sorted
    int64 keys i * n + j of both directions, so memory is the index
    arrays, the node ids and one chunk of text: O(edges).

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
    index = {}  # token -> node index, in order of first appearance
    chunks = []
    lineno = 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        while lines := fh.readlines(_READ_CHARS):
            tokens = []
            for lineno, pair in enumerate(map(str.split, lines), start=lineno + 1):
                # skip blank lines and lines whose first token starts with "#"
                if len(pair) == 2 and pair[0][0] != "#":
                    tokens += pair
                elif pair and pair[0][0] != "#":
                    raise ValueError(
                        f"{path}: line {lineno}: expected two node tokens, got {len(pair)}"
                    )
            new = list(filterfalse(index.__contains__, dict.fromkeys(tokens)))
            index.update(zip(new, range(len(index), len(index) + len(new))))
            # int32 indices, as SciPy picks below 2**31 nodes; fromiter raises past that
            chunks.append(np.fromiter(map(index.__getitem__, tokens), dtype=np.int32,
                                      count=len(tokens)))
    if not index:
        raise ValueError(f"{path}: empty edge list")
    n = len(index)
    node_ids = list(index)
    del index
    ij = np.concatenate(chunks)
    del chunks
    i, j = ij[0::2], ij[1::2]
    keep = i != j
    i, j = i[keep], j[keep]
    del ij, keep
    # the entries (i, j) and (j, i) as int64 keys i * n + j, sorted in
    # place: the row-major order of the CSR array, repeats adjacent
    m = i.size
    keys = np.empty(2 * m, dtype=np.int64)
    keys[:m], keys[m:] = i, j
    keys *= n
    keys[:m] += j
    keys[m:] += i
    del i, j
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    del first
    # int32 index arrays while the 2m entries fit, as SciPy's COO-to-CSR
    # conversion picks
    index = np.int32 if 2 * m <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n).astype(index)
    indices = np.remainder(keys, n, out=keys).astype(index)
    del keys
    A = csr_array((np.ones(indices.size), indices, indptr), shape=(n, n))
    A.has_canonical_format = True  # sorted, each entry once
    return A, node_ids


def write_edge_list(A, path) -> None:
    """Write the upper-triangle edges of A, one "u v" line per edge in
    row-major order, nodes numbered from 0.

    A may be dense or any SciPy sparse matrix; sparse input is written in
    O(stored entries) and gives the same bytes as its dense form.  The
    lines are formatted one block of whole rows at a time (at most
    ``_WRITE_EDGES`` edges, or one longer row).
    """
    U = triu(A, k=1, format="csr")  # canonical: duplicates summed, indices sorted
    U.eliminate_zeros()
    indptr = U.indptr
    start = 0
    with open(path, "w", encoding="utf-8") as fh:
        while start < U.shape[0]:
            stop = max(int(np.searchsorted(indptr, indptr[start] + _WRITE_EDGES, "right")) - 1,
                       start + 1)
            rows = np.repeat(np.arange(start, stop), np.diff(indptr[start:stop + 1]))
            cols = U.indices[indptr[start]:indptr[stop]]
            fh.writelines(f"{i} {j}\n" for i, j in zip(rows.tolist(), cols.tolist()))
            start = stop


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
    from scipy.optimize import linear_sum_assignment  # imported here: 0.2 s of netcv's import

    M = confusion_matrix(g1, g2)
    k = max(M.shape)
    square = np.zeros((k, k), dtype=np.int64)
    square[: M.shape[0], : M.shape[1]] = M
    rows, cols = linear_sum_assignment(square, maximize=True)
    agreement = square[rows, cols].sum()
    return int(len(np.asarray(g1)) - agreement)
