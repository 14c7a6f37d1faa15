"""Parameter containers and samplers for block models.

Two generative families are supported: the plain stochastic block
model, where the probability of an edge depends only on the community
labels of its endpoints, and the degree-corrected variant, which
multiplies that probability by a per-node activeness factor psi
(block-wise max of psi fixed to 1 for identifiability; the plain model
is the special case psi = 1).  Both parameter types share one base, and
the plain model's ``psi`` is None, as in ``BlockFit``.

``sample`` draws a graph straight into the canonical float CSR array
that ``netcv.graphs.check_adjacency`` passes through as is.  It draws
one uniform per node pair i < j in row-major order, one block of rows
at a time; the draws are those of one ``rng.random`` call over the
whole upper triangle of ``expected_P``, which is the n x n population
matrix and is built only on request.  Only the pairs whose uniform
falls below the largest edge probability can be edges, so only those
are mapped to (row, column) and compared with their own probability:
memory is O(edges + one block of uniforms).

Also provides the parameter constructors used by the three scripted
experiment designs in :mod:`netcv.harness`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .graphs import check_membership

_PSI_TOL = 1e-8
# most node pairs whose uniforms ``sample`` draws at once (one row may hold more)
_BLOCK_PAIRS = 1 << 16


def _frozen_array(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def check_block_matrix(B: np.ndarray, k: int) -> None:
    """Raise ValueError unless B is a symmetric k x k matrix of probabilities."""
    B = np.asarray(B, dtype=float)
    if B.shape != (k, k):
        raise ValueError(f"block matrix must be {k}x{k}, got {B.shape}")
    if not np.allclose(B, B.T):
        raise ValueError("block matrix must be symmetric")
    if B.min() < 0.0 or B.max() > 1.0:
        raise ValueError("block matrix entries must lie in [0, 1]")


def _positive_activeness(values) -> np.ndarray:
    """values as floats; ValueError unless each is finite and positive."""
    psi = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(psi) & (psi > 0.0)):
        raise ValueError("activeness entries must be finite and positive")
    return psi


def check_degree_params(psi: np.ndarray, g: np.ndarray, k: int) -> None:
    """Raise ValueError unless psi is finite and positive with block-wise
    maximum 1 (a community with no node has no maximum to check)."""
    psi = _positive_activeness(psi)
    if psi.shape != np.asarray(g).shape:
        raise ValueError("psi must have one entry per node")
    for c in range(1, k + 1):
        members = psi[np.asarray(g) == c]
        if members.size == 0:
            continue
        m = members.max()
        if abs(m - 1.0) > _PSI_TOL:
            raise ValueError(f"community {c}: block-wise max of psi is {m}, expected 1")


@dataclass(frozen=True)
class _BlockParams:
    """g (labels 1..k) and B, as both families hold them; here ``psi`` is None."""

    g: np.ndarray
    k: int
    B: np.ndarray
    psi = None

    def __post_init__(self):
        object.__setattr__(self, "g", _frozen_array(self.g, dtype=np.int64))
        object.__setattr__(self, "B", _frozen_array(self.B))
        check_membership(self.g, self.k)
        check_block_matrix(self.B, self.k)

    @property
    def n(self) -> int:
        return self.g.size


@dataclass(frozen=True)
class SbmParams(_BlockParams):
    """Stochastic block model: (g, B), with ``psi`` None (every activeness 1)."""


@dataclass(frozen=True)
class DcbmParams(_BlockParams):
    """Degree-corrected block model: (g, B) plus node activeness psi."""

    psi: np.ndarray = field()  # required: field() hides the base's default

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "psi", _frozen_array(self.psi))
        check_degree_params(self.psi, self.g, self.k)


def expected_P(params) -> np.ndarray:
    """Edge-probability matrix P with P[i, j] = B[g_i, g_j], times psi_i psi_j
    for the degree-corrected model.  Symmetric; the diagonal is reported
    but never sampled."""
    idx = params.g - 1
    P = params.B[np.ix_(idx, idx)]
    if params.psi is not None:
        P = P * np.outer(params.psi, params.psi)
    return P


def _max_probability(params) -> float:
    """Largest entry of ``expected_P(params)``, diagonal included, in O(n + k^2).

    Rounding is monotone, so over the pairs of blocks a and b the largest
    ``B_ab * (psi_i * psi_j)`` is ``B_ab * (m_a * m_b)``, where m_a is the
    largest psi in block a; the pair (i, i) makes this hold for a = b too.
    """
    present = np.flatnonzero(np.bincount(params.g - 1, minlength=params.k))
    B = params.B[np.ix_(present, present)]
    if params.psi is not None:
        m = np.zeros(params.k)
        np.maximum.at(m, params.g - 1, params.psi)
        B = B * np.outer(m[present], m[present])
    return float(B.max())


def sample(params, rng: np.random.Generator) -> csr_array:
    """Draw an adjacency matrix: independent Bernoulli edges for i < j,
    mirrored to j > i, zero diagonal.  Deterministic given the generator.

    Returns the canonical float CSR array that ``check_adjacency`` passes
    through as is.  The draws, the graph and the generator's final state
    are those of one ``rng.random`` call against the upper triangle of
    ``expected_P``, but memory is O(edges + one block), never n x n.
    """
    p_max = _max_probability(params)
    if p_max > 1.0:
        raise ValueError("edge probabilities outside [0, 1] (psi_i psi_j B > 1?)")
    U = _upper_triangle(params, p_max, rng)
    return U + U.T


def _upper_triangle(params, p_max: float, rng: np.random.Generator) -> csr_array:
    """Edges i < j of one draw, as CSR.

    The pairs are drawn in row-major order, one block of whole rows at a
    time (at most ``_BLOCK_PAIRS`` pairs, or one longer row), and edge
    (i, j) is drawn where its uniform falls below
    ``B[g_i, g_j] * (psi_i * psi_j)``, the product ``expected_P`` forms.
    No such product exceeds ``p_max`` (``_max_probability``), so only the
    pairs whose uniform falls below ``p_max`` are mapped to (row, column)
    and compared with their own probability; no array but the uniforms and
    that one comparison spans the block.
    """
    n = params.n
    g = params.g - 1
    ends = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))  # ends[r]: pairs in rows < r
    counts = np.zeros(n, dtype=np.int64)
    hit_cols = [np.empty(0, dtype=np.int32)]
    start = 0
    while start < n - 1:
        stop = max(int(np.searchsorted(ends, ends[start] + _BLOCK_PAIRS, "right")) - 1,
                   start + 1)
        u = rng.random(ends[stop] - ends[start])
        near = np.flatnonzero(u < p_max)  # pair offsets within the block
        pair = near + ends[start]
        rows = np.searchsorted(ends[start:stop], pair, "right") + (start - 1)
        cols = pair - ends[rows] + rows + 1
        P = params.B[g[rows], g[cols]]
        if params.psi is not None:
            P = P * (params.psi[rows] * params.psi[cols])
        hits = u[near] < P
        counts[start:stop] = np.bincount(rows[hits] - start, minlength=stop - start)
        hit_cols.append(cols[hits].astype(np.int32))
        start = stop
    indptr = np.concatenate(([0], np.cumsum(counts)))
    # int32 index arrays while U + U.T can hold them, as load_edge_list returns
    if 2 * indptr[-1] <= np.iinfo(np.int32).max:
        indptr = indptr.astype(np.int32)
    return csr_array((np.ones(int(indptr[-1])), np.concatenate(hit_cols), indptr),
                     shape=(n, n))


def _multinomial_membership(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Equal-probability multinomial labels, resampled until no community is empty."""
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    for _ in range(1000):
        g = rng.integers(1, k + 1, size=n)
        if np.unique(g).size == k:
            return g
    raise ValueError(f"could not draw non-degenerate membership for n={n}, k={k}")


def normalize_activeness(psi_raw: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """Divide psi by its block-wise maximum so each non-empty community's
    max is exactly 1; ValueError unless every entry is finite and positive."""
    psi = _positive_activeness(psi_raw).copy()
    for c in range(1, k + 1):
        mask = np.asarray(g) == c
        if mask.any():
            psi[mask] /= psi[mask].max()
    return psi


def sim1_params(n: int, K: int, n1: int, r: float) -> SbmParams:
    """Planted-partition design: B has diagonal 3r and off-diagonal r.

    Community 1 has n1 nodes (the smallest community); the remaining
    K-1 communities share the rest equally, remainder going to the last
    community.  Requires 0 < r < 1/3 so the diagonal stays below 1.
    """
    if not 0.0 < r < 1.0 / 3.0:
        raise ValueError(f"scale r must lie in (0, 1/3), got {r}")
    if K < 1:
        raise ValueError("K must be >= 1")
    if K == 1:
        if n1 != n:
            raise ValueError("with K=1 the single community must contain all n nodes")
        sizes = [n]
    else:
        if n1 < 1 or n1 * K > n:
            raise ValueError(f"need 1 <= n1 <= n/K, got n1={n1}, n={n}, K={K}")
        base = (n - n1) // (K - 1)
        rem = (n - n1) % (K - 1)
        sizes = [n1] + [base] * (K - 1)
        sizes[-1] += rem
    if min(sizes) < 1:
        raise ValueError(f"infeasible community sizes {sizes}")
    g = np.repeat(np.arange(1, K + 1), sizes)
    B = r * (np.ones((K, K)) + 2.0 * np.eye(K))
    return SbmParams(g=g, k=K, B=B)


# 25th-percentile reference for the smallest retained singular value in the
# random-B design, per community count.  Estimated once per process from a
# fixed-seed pilot sample so that acceptance thresholds do not depend on the
# caller's generator state.
_SIGMA_K_Q25: dict[int, float] = {}
_SIM2_PILOT_DRAWS = 200


def _random_half_uniform_B(K: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric K x K matrix with Unif(0, 0.5) entries on and above the diagonal."""
    B = np.zeros((K, K))
    iu = np.triu_indices(K)
    B[iu] = rng.uniform(0.0, 0.5, size=iu[0].size)
    B = np.triu(B) + np.triu(B, k=1).T
    return B


def sim2_sigma_threshold(K: int) -> float:
    """Empirical 25th percentile of sigma_K over the pilot sample of random B."""
    if K not in _SIGMA_K_Q25:
        pilot_rng = np.random.default_rng(175 + K)
        sig = [
            np.linalg.svd(_random_half_uniform_B(K, pilot_rng), compute_uv=False)[-1]
            for _ in range(_SIM2_PILOT_DRAWS)
        ]
        _SIGMA_K_Q25[K] = float(np.quantile(sig, 0.25))
    return _SIGMA_K_Q25[K]


def sim2_params(n: int, K: int, rng: np.random.Generator) -> SbmParams:
    """Random block structure: Unif(0, 0.5) entries, rejection-sampled so the
    Kth singular value of B falls in the upper three quarters of its
    distribution (no rejection needed for K=1).  Membership is
    equal-probability multinomial with no empty community."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if K == 1:
        B = _random_half_uniform_B(1, rng)
    else:
        threshold = sim2_sigma_threshold(K)
        while True:
            B = _random_half_uniform_B(K, rng)
            if np.linalg.svd(B, compute_uv=False)[-1] >= threshold:
                break
    g = _multinomial_membership(n, K, rng)
    return SbmParams(g=g, k=K, B=B)


def sim3_params(n: int, K: int, model: str, rng: np.random.Generator):
    """Fixed block matrix (diagonal 0.25, off-diagonal 0.1) with multinomial
    membership.  For the degree-corrected variant, psi is Unif(0.2, 1)
    normalized to block-wise maximum 1."""
    if K < 1:
        raise ValueError("K must be >= 1")
    B = 0.1 * np.ones((K, K)) + 0.15 * np.eye(K)
    g = _multinomial_membership(n, K, rng)
    if model == "sbm":
        return SbmParams(g=g, k=K, B=B)
    if model == "dcbm":
        psi = normalize_activeness(rng.uniform(0.2, 1.0, size=n), g, K)
        return DcbmParams(g=g, k=K, B=B, psi=psi)
    raise ValueError(f"model must be 'sbm' or 'dcbm', got {model!r}")
