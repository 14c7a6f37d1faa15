"""End-to-end acceptance checks.

One test per criterion; run with ``pytest tests/test_acceptance.py -v``
to get one pass/fail line per criterion.  Each test also enforces its
wall-clock budget.  The political-blogs check is data-dependent and
skips itself unless the edge list is present (see POLBLOGS_PATH).
"""

import os
import time

import numpy as np
import pytest

from netcv.cli import main as cli_main
from netcv.estimators import _pair_sums, estimate_block
from netcv.graphs import hamming_up_to_permutation, load_edge_list, write_edge_list
from netcv.harness import ExperimentSpec, run_polblogs, run_sim1, run_sim3
from netcv.models import DcbmParams, SbmParams, expected_P, sample, sim1_params
from netcv.spectral import spectral_cluster_rect, spherical_spectral_cluster_rect

POLBLOGS_PATH = os.environ.get(
    "NETCV_POLBLOGS",
    os.path.join(os.path.dirname(__file__), "..", "data", "polblogs.txt"))


def _done(name, t0, budget, detail):
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert elapsed < budget


# -------------------------------------------------------------- criterion 1

def test_criterion_01_noiseless_recovery():
    """Population-matrix recovery is exact for K = 1..5 at n = 120."""
    t0 = time.perf_counter()
    n = 120
    rng = np.random.default_rng(0)
    rows = np.arange(n)[np.arange(n) % 3 != 0]
    for K in range(1, 6):
        g = np.repeat(np.arange(1, K + 1), n // K)
        B = np.full((K, K), 0.1)
        np.fill_diagonal(B, 0.6)
        P = expected_P(SbmParams(g=g, k=K, B=B))
        g_hat = spectral_cluster_rect(P[rows, :], K, np.random.default_rng(K))
        assert hamming_up_to_permutation(g_hat, g) == 0

        psi = rng.uniform(0.3, 1.0, n)
        for c in range(1, K + 1):
            psi[g == c] /= psi[g == c].max()
        Pd = expected_P(DcbmParams(g=g, k=K, B=B, psi=psi))
        g_sph, _ = spherical_spectral_cluster_rect(Pd[rows, :], K,
                                                   np.random.default_rng(K))
        assert hamming_up_to_permutation(g_sph, g) == 0
    _done("criterion 1 (noiseless recovery)", t0, 10, "Hamming 0 for K=1..5, both clusterers")


# -------------------------------------------------------------- criterion 2

def _oracle_pair_sums(A, N1, g, k, psi=None):
    n = len(g)
    in1 = np.zeros(n, dtype=bool)
    in1[np.asarray(N1)] = True
    Num = np.zeros((k, k))
    Den = np.zeros((k, k))
    for i in range(n):
        for j in range(i + 1, n):
            if not (in1[i] or in1[j]):
                continue
            a, b = g[i] - 1, g[j] - 1
            w = 1.0 if psi is None else psi[i] * psi[j]
            Num[a, b] += A[i, j]
            Den[a, b] += w
            if a != b:
                Num[b, a] += A[i, j]
                Den[b, a] += w
    return Num, Den


def test_criterion_02_estimator_oracle_equivalence():
    """Vectorized pair sums match a brute-force double loop on 50 instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(6, 31))
        k = int(rng.integers(1, 5))
        g = rng.integers(1, k + 1, size=n)
        A = (rng.random((n, n)) < 0.35).astype(np.int8)
        A = np.triu(A, 1)
        A = (A + A.T).astype(np.int8)
        perm = rng.permutation(n)
        cut = int(rng.integers(1, n))
        N1, N2 = np.sort(perm[:cut]), np.sort(perm[cut:])
        Num, Den = _pair_sums(A, N1, N2, g, k)
        Num_o, Den_o = _oracle_pair_sums(A, N1, g, k)
        assert np.array_equal(Num, Num_o) and np.array_equal(Den, Den_o)
        psi = rng.uniform(0.1, 1.0, size=n)
        Num_w, Den_w = _pair_sums(A, N1, N2, g, k, weights=psi)
        Num_wo, Den_wo = _oracle_pair_sums(A, N1, g, k, psi=psi)
        assert np.array_equal(Num_w, Num_wo)
        assert np.allclose(Den_w, Den_wo, rtol=1e-12, atol=1e-12)
    _done("criterion 2 (estimator oracle)", t0, 5, "50 instances, exact counts")


# -------------------------------------------------------------- criterion 3

def test_criterion_03_estimator_unbiasedness():
    """With the true membership, B-hat entries average to B within 3 SE."""
    t0 = time.perf_counter()
    params = sim1_params(600, 3, 200, 0.2)
    N1 = np.arange(0, 600, 3)
    N1 = np.setdiff1d(np.arange(600), N1)  # two thirds of the nodes fit
    N2 = np.setdiff1d(np.arange(600), N1)
    reps = 200
    acc = np.zeros((3, 3))
    for rep in range(reps):
        A = sample(params, np.random.default_rng(10_000 + rep))
        acc += estimate_block(A, N1, N2, params.g, 3).B_hat
    mean = acc / reps
    _, D = _pair_sums(np.zeros((600, 600)), N1, N2, params.g, 3)
    se = np.sqrt(params.B * (1 - params.B) / D) / np.sqrt(reps)
    dev = np.abs(mean - params.B) / se
    assert dev.max() <= 3.0, f"max deviation {dev.max():.2f} SE"
    _done("criterion 3 (unbiasedness)", t0, 120,
          f"200 reps, max |mean-B| = {dev.max():.2f} SE")


# ---------------------------------------------------- criteria 4 + 8 (shared)

@pytest.fixture(scope="module")
def sim1_main_rows():
    t0 = time.perf_counter()
    rows = []
    for K in (2, 3, 4):
        spec = ExperimentSpec(which="sim1", n=1000, K=(K,), n1=(1000 // K,),
                              r=(0.2,), reps=20, V=3, seed=4242)
        rows.extend(run_sim1(spec).rows)
    return rows, time.perf_counter() - t0


def test_criterion_04_sim1_balanced_recovery(sim1_main_rows):
    """Balanced planted-K selection at r=0.2 succeeds in >=90% of reps."""
    rows, elapsed = sim1_main_rows
    for row in rows:
        assert row["rate"] >= 0.9, f"K={row['K']}: rate {row['rate']}"
    rates = {row["K"]: row["rate"] for row in rows}
    print(f"[acceptance] criterion 4 (sim1 r=0.2): PASS ({elapsed:.1f}s / budget 600s) "
          f"rates {rates}")
    assert elapsed < 600


def test_criterion_08_under_selection_guard(sim1_main_rows):
    """Pooled under-selection frequency over criterion 4's runs <= 5%."""
    rows, _ = sim1_main_rows
    under = sum(row["under"] for row in rows)
    total = sum(row["reps"] for row in rows)
    assert under / total <= 0.05, f"{under}/{total} under-selections"
    print(f"[acceptance] criterion 8 (under-selection): PASS "
          f"{under}/{total} = {under / total:.3f} <= 0.05")


# -------------------------------------------------------------- criterion 5

def test_criterion_05_sim1_sparse_balanced():
    """Sparse balanced case r=0.01 still selects K=2 in >=85% of reps."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(which="sim1", n=1000, K=(2,), n1=(500,), r=(0.01,),
                          reps=20, V=3, seed=777)
    row = run_sim1(spec).rows[0]
    assert row["rate"] >= 0.85, f"rate {row['rate']}"
    _done("criterion 5 (sim1 sparse)", t0, 180, f"rate {row['rate']}")


# -------------------------------------------------------------- criterion 6

def test_criterion_06_sim3_sbm_side():
    """SBM truth at n=600: right family >=95%, right K among those >=90%."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(which="sim3", n=600, K=(1, 2, 3), reps=20, V=3,
                          model=("sbm",), seed=31337)
    rows = run_sim3(spec).rows
    for row in rows:
        assert row["type_rate"] >= 0.95, f"K={row['K']}: type {row['type_rate']}"
        assert row["k_rate"] >= 0.9, f"K={row['K']}: k|type {row['k_rate']}"
    detail = {row["K"]: (row["type_rate"], round(row["k_rate"], 3)) for row in rows}
    _done("criterion 6 (sim3 SBM)", t0, 900, f"(type, K|type) {detail}")


# -------------------------------------------------------------- criterion 7

def test_criterion_07_sim3_dcbm_side():
    """DCBM truth at n=1200, K=2: both rates >= 0.9."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(which="sim3", n=1200, K=(2,), reps=10, V=3,
                          model=("dcbm",), seed=2718)
    row = run_sim3(spec).rows[0]
    assert row["type_rate"] >= 0.9, f"type rate {row['type_rate']}"
    assert row["k_rate"] >= 0.9, f"k|type rate {row['k_rate']}"
    _done("criterion 7 (sim3 DCBM)", t0, 1200,
          f"type {row['type_rate']}, K|type {row['k_rate']}")


# -------------------------------------------------------------- criterion 9

def test_criterion_09_byte_identical_outputs(tmp_path, capsys):
    """Repeated seeded runs emit byte-identical JSON/CSV at any thread count."""
    t0 = time.perf_counter()
    g = np.repeat([1, 2], 30)
    B = np.array([[0.7, 0.1], [0.1, 0.7]])
    A = sample(SbmParams(g=g, k=2, B=B), np.random.default_rng(5))
    path = str(tmp_path / "g.txt")
    write_edge_list(A, path)

    sel = ["select", "--input", path, "--kmax", "3", "--models", "sbm,dcbm",
           "--seed", "12"]
    outs = []
    for extra in ([], [], ["--threads", "4"]):
        assert cli_main(sel + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]

    bench = ["bench", "sim1", "--n", "120", "--k", "2", "--n1", "60", "--r",
             "0.2", "--reps", "2", "--seed", "12"]
    csvs = []
    for extra in ([], [], ["--threads", "3"]):
        assert cli_main(bench + extra) == 0
        csvs.append(capsys.readouterr().out)
    assert csvs[0] == csvs[1] == csvs[2]
    _done("criterion 9 (determinism)", t0, 120,
          "select JSON and bench CSV byte-identical across runs and threads")


# ------------------------------------------------------------- criterion 10

@pytest.mark.skipif(not os.path.exists(POLBLOGS_PATH),
                    reason=f"polblogs edge list not present at {POLBLOGS_PATH} "
                           "(set NETCV_POLBLOGS to point at it)")
def test_criterion_10_polblogs():
    """LCC has 1222 nodes; modal selection over 10 splits is (dcbm, 2)."""
    t0 = time.perf_counter()
    A, _ = load_edge_list(POLBLOGS_PATH)
    from netcv.graphs import largest_connected_component
    _, nodes = largest_connected_component(A)
    assert nodes.size == 1222, f"LCC size {nodes.size}"
    table, _ = run_polblogs(POLBLOGS_PATH, reps=10, V=3, seed=6, kmax=6)
    modal = max(table.rows, key=lambda row: row["count"])
    assert (modal["model"], modal["K"]) == ("dcbm", 2), \
        f"modal ({modal['model']}, {modal['K']})"
    assert modal["freq"] >= 0.9, f"modal frequency {modal['freq']}"
    _done("criterion 10 (polblogs)", t0, 600,
          f"LCC 1222, modal (dcbm, 2) at freq {modal['freq']}")
