"""Graph storage, edge-list I/O, node partitioning and label agreement.

Adjacency matrices are plain dense numpy arrays: symmetric, binary
({0,1}), zero diagonal.  Node memberships are integer vectors with
labels in {1..K}.  All randomness is drawn from an explicitly passed
``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def check_adjacency(A: np.ndarray) -> None:
    """Raise ValueError unless A is a square symmetric 0/1 matrix with zero diagonal."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {A.shape}")
    if not np.array_equal(A, A.T):
        raise ValueError("adjacency matrix must be symmetric")
    if np.any(np.diag(A) != 0):
        raise ValueError("adjacency matrix must have zero diagonal")
    if np.count_nonzero(A == 0) + np.count_nonzero(A == 1) != A.size:
        raise ValueError("adjacency entries must be 0 or 1")


def check_membership(g: np.ndarray, k: int) -> None:
    """Raise ValueError unless g is a label vector with values in {1..k}."""
    g = np.asarray(g)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("membership must be a non-empty 1-d vector")
    if k < 1 or g.size < k:
        raise ValueError(f"need n >= k >= 1, got n={g.size}, k={k}")
    if g.min() < 1 or g.max() > k:
        raise ValueError(f"labels must lie in 1..{k}")


def load_edge_list(path, symmetrize: bool = True):
    """Read an undirected edge list into an adjacency matrix.

    The file format is UTF-8 text with one edge per line, two
    whitespace-separated node tokens; lines starting with ``#`` and
    blank lines are ignored.  Node tokens may be arbitrary strings and
    are mapped to indices 0..n-1 in order of first appearance.
    Duplicate edges collapse to a single edge and self-loops are
    dropped.

    Parameters
    ----------
    path : str or Path
        Edge-list file.
    symmetrize : bool
        If True (default), every listed edge (i, j) also sets (j, i).
        If False, the listed edge set must already be symmetric and a
        ValueError is raised otherwise (the returned matrix is always
        symmetric).

    Returns
    -------
    A : ndarray of shape (n, n)
        Binary adjacency matrix.
    node_ids : list of str
        Original token for each node index.
    """
    ids: dict[str, int] = {}
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
    if symmetrize:
        i, j = np.concatenate([i, j]), np.concatenate([j, i])
    A = np.zeros((n, n), dtype=np.int8)
    A[i, j] = 1
    if not symmetrize and not np.array_equal(A, A.T):
        raise ValueError(f"{path}: edge list is not symmetric and symmetrize=False")
    node_ids = [None] * n
    for tok, idx in ids.items():
        node_ids[idx] = tok
    return A, node_ids


def write_edge_list(A: np.ndarray, path) -> None:
    """Write the upper-triangle edges of A, one "u v" line per edge,
    nodes numbered from 0."""
    iu, ju = np.nonzero(np.triu(np.asarray(A), k=1))
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in zip(iu, ju):
            fh.write(f"{i} {j}\n")


def largest_connected_component(A: np.ndarray):
    """Induced subgraph on the largest connected component.

    Ties between components of equal size are broken in favour of the
    component containing the smallest node id.

    Returns
    -------
    A_sub : ndarray
        Adjacency matrix of the component.
    nodes : ndarray
        Original indices of the retained nodes, ascending.
    """
    A = np.asarray(A)
    if A.shape[0] < 1:
        raise ValueError("graph must have at least one node")
    n_comp, labels = connected_components(csr_matrix(A), directed=False)
    sizes = np.bincount(labels, minlength=n_comp)
    best = max(
        range(n_comp),
        key=lambda c: (sizes[c], -int(np.nonzero(labels == c)[0][0])),
    )
    nodes = np.nonzero(labels == best)[0]
    return A[np.ix_(nodes, nodes)], nodes


def partition_nodes(n: int, V: int, rng: np.random.Generator):
    """Uniformly random balanced partition of {0..n-1} into V folds.

    Fold sizes differ by at most one; the first ``n mod V`` folds get
    the extra node.  Deterministic given the generator state.

    Returns a list of V sorted index arrays.
    """
    if not 1 < V <= n:
        raise ValueError(f"need 1 < V <= n, got V={V}, n={n}")
    perm = rng.permutation(n)
    base, extra = divmod(n, V)
    folds = []
    start = 0
    for v in range(V):
        size = base + (1 if v < extra else 0)
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds


def confusion_matrix(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """K1 x K2 table of label co-occurrence counts (labels are 1-based)."""
    g1 = np.asarray(g1)
    g2 = np.asarray(g2)
    if g1.shape != g2.shape:
        raise ValueError("membership vectors must have equal length")
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
