import logging
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import litclust.lsa as lsa_mod
from litclust.base import replace_file
from litclust.corpus import jsonl_lines
from litclust.errors import ConfigError, ConvergenceFailure, DimsTooLarge, ParseError
from litclust.lsa import (
    EmbeddingMatrix,
    TruncatedLsa,
    _fix_signs,
    embedding_lines,
    load_embedding,
    reduce,
    truncated_svd,
)
from litclust.vectorize import WeightedMatrix, build_weighted_matrix

from helpers import make_planted_corpus, subprocess_env


def as_weighted(dense):
    dense = np.asarray(dense, dtype=float)
    return WeightedMatrix(
        terms=tuple(f"t{i:03d}" for i in range(dense.shape[0])),
        docs=tuple(f"d{j:03d}" for j in range(dense.shape[1])),
        weights=sparse.csr_array(dense),
    )


def random_sparse(m, n, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.random((m, n)) * (rng.random((m, n)) < density)
    return dense


def test_rank_one_matrix_recovered_exactly():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([4.0, 0.5, 2.0, 1.0])
    a = np.outer(u, v)
    uu, s, vt = truncated_svd(a, 1)
    reconstruction = uu @ np.diag(s) @ vt
    assert np.max(np.abs(reconstruction - a)) <= 1e-9


def test_diagonal_singular_values_sorted():
    emb = reduce(as_weighted(np.diag([3.0, 4.0])), 2)
    assert emb.singular_values.tolist() == pytest.approx([4.0, 3.0], abs=1e-12)


def test_small_sparse_matches_gram_eigensolve():
    dense = random_sparse(50, 40, seed=1)
    _, s, _ = truncated_svd(sparse.csr_array(dense), 10, seed=0)
    # Independent route: dense symmetric eigensolve of the Gram matrix.
    gram = dense.T @ dense
    eigvals = np.linalg.eigvalsh(gram)[::-1]
    expected = np.sqrt(np.maximum(eigvals[:10], 0))
    assert np.max(np.abs(s - expected) / expected) <= 1e-6


def test_randomized_path_matches_dense_svd():
    # A side of 120 takes several Krylov blocks and Rayleigh-Ritz steps.
    dense = random_sparse(150, 120, density=0.2, seed=2)
    u, s, vt = truncated_svd(sparse.csr_array(dense), 12, seed=3)
    reference = np.linalg.svd(dense, compute_uv=False)[:12]
    assert np.max(np.abs(s - reference) / reference) <= 1e-6
    # Rank-12 truncation error should match the optimal one closely.
    approx = u @ np.diag(s) @ vt
    u_ref, s_ref, vt_ref = np.linalg.svd(dense, full_matrices=False)
    best = u_ref[:, :12] @ np.diag(s_ref[:12]) @ vt_ref[:12]
    assert np.linalg.norm(approx - dense) <= np.linalg.norm(best - dense) * (1 + 1e-6)


def test_frobenius_error_non_increasing_in_dims():
    dense = random_sparse(90, 70, seed=4)
    a = sparse.csr_array(dense)
    errors = []
    for n_dims in range(1, 21):
        u, s, vt = truncated_svd(a, n_dims, seed=0)
        errors.append(np.linalg.norm(dense - u @ np.diag(s) @ vt))
    diffs = np.diff(errors)
    assert np.all(diffs <= 1e-9)


def test_squared_singular_values_are_gram_eigenvalues():
    dense = random_sparse(30, 25, seed=5)
    _, s, _ = truncated_svd(dense, 8)
    eig = np.linalg.eigvalsh(dense.T @ dense)[::-1][:8]
    assert np.max(np.abs(s**2 - eig)) <= 1e-6 * max(1.0, eig[0])


def test_embedding_rows_are_scaled_document_factors():
    dense = random_sparse(40, 20, seed=6)
    emb = reduce(as_weighted(dense), 5)
    _, s, vt = truncated_svd(dense, 5)
    assert np.allclose(emb.vectors, vt.T * s, atol=1e-12)
    assert emb.dims == 5
    assert emb.vectors.shape == (20, 5)


def separated_spectrum_matrix(m, n, seed):
    """Random matrix with a well-separated singular spectrum.

    Singular vectors of (near-)tied singular values are not unique, so
    order-invariance is only well-posed when the spectrum is separated.
    """
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, min(m, n))))
    v, _ = np.linalg.qr(rng.standard_normal((n, min(m, n))))
    s = 10.0 * 0.8 ** np.arange(min(m, n))
    return (u * s) @ v.T


def test_document_order_invariance_up_to_permutation():
    dense = separated_spectrum_matrix(80, 66, seed=7)
    perm = np.random.default_rng(8).permutation(66)
    emb_a = reduce(as_weighted(dense), 6, seed=1)
    emb_b = reduce(as_weighted(dense[:, perm]), 6, seed=1)
    assert np.allclose(emb_b.vectors, emb_a.vectors[perm], atol=1e-8)


def test_seed_determinism_bit_stable():
    dense = random_sparse(100, 80, density=0.25, seed=9)
    emb1 = reduce(as_weighted(dense), 7, seed=42)
    emb2 = reduce(as_weighted(dense), 7, seed=42)
    assert (emb1.vectors == emb2.vectors).all()
    assert (emb1.singular_values == emb2.singular_values).all()


def test_dims_too_large():
    with pytest.raises(DimsTooLarge):
        reduce(as_weighted(np.ones((3, 5))), 4)


@pytest.mark.parametrize("shape", [(300, 200), (30, 20)], ids=["krylov", "small"])
@pytest.mark.parametrize("k", [0, -1, 2.5, True])
def test_truncated_svd_refuses_k_that_is_no_positive_integer(shape, k):
    a = sparse.csr_array(random_sparse(*shape, seed=19))
    with pytest.raises(ConfigError, match="k must be"):
        truncated_svd(a, k)


def test_truncated_svd_refuses_k_above_the_smaller_side():
    with pytest.raises(DimsTooLarge, match=r"k=21 dimensions exceed min\(shape\)=20 of this 30 x 20 matrix"):
        truncated_svd(random_sparse(30, 20, seed=19), 21)


def test_basis_column_cap_raises_convergence_failure(monkeypatch):
    monkeypatch.setattr(lsa_mod, "BASIS_MARGIN", 4)
    dense = random_sparse(100, 80, seed=12)
    with pytest.raises(ConvergenceFailure, match="9-column limit"):
        truncated_svd(sparse.csr_array(dense), 5, seed=0)


def sign_fixed_reference(dense, k):
    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    return _fix_signs(u[:, :k], s[:k].copy(), vt[:k].copy())


@pytest.mark.parametrize("shape", [(150, 120), (120, 150)], ids=["doc-side", "term-side"])
def test_vectors_match_dense_svd(shape):
    dense = random_sparse(*shape, density=0.2, seed=13)
    u, s, vt = truncated_svd(sparse.csr_array(dense), 12, seed=4)
    u_ref, s_ref, vt_ref = sign_fixed_reference(dense, 12)
    assert np.max(np.abs(s - s_ref) / s_ref) <= 1e-12
    assert np.max(np.abs(vt - vt_ref)) <= 1e-9
    assert np.max(np.abs(u - u_ref)) <= 1e-9


def repeated_spectrum(copies, block):
    """``copies`` copies of one random sparse block down the diagonal."""
    one = sparse.csr_array(random_sparse(*block, density=0.3, seed=copies))
    return sparse.csr_array(sparse.block_diag([one] * copies))


@pytest.mark.parametrize("copies, block", [(2, (300, 250)), (4, (150, 120))])
def test_repeated_singular_values_match_dense(copies, block):
    # Every singular value appears `copies` times; a block of width 4
    # must find all copies of each.
    a = repeated_spectrum(copies, block)
    u, s, vt = truncated_svd(a, 20, seed=0)
    dense = a.toarray()
    _, s_ref, _ = sign_fixed_reference(dense, 20)
    assert np.allclose(s[::copies], s[copies - 1::copies], rtol=1e-12)
    assert np.max(np.abs(s - s_ref) / s_ref) <= 1e-9
    # The singular vectors of a repeated value are not unique; the
    # subspaces are, so the truncation error must be the optimal one.
    best = np.sqrt(np.sum(np.linalg.svd(dense, compute_uv=False)[20:] ** 2))
    assert np.linalg.norm(dense - (u * s) @ vt) <= best * (1 + 1e-9)
    assert np.allclose(vt @ vt.T, np.eye(20), atol=1e-12)


def low_rank(rank):
    return random_sparse(90, rank, density=0.5, seed=14) @ random_sparse(rank, 75, density=0.5, seed=15)


@pytest.mark.parametrize("rank", [10, 0])
def test_rank_below_n_dims(rank):
    # 15 dims wanted: the Krylov space is exhausted before the basis holds
    # 15 columns, so it is completed with directions of the null space.
    low = low_rank(rank)
    u, s, vt = truncated_svd(sparse.csr_array(low), 15, seed=0)
    s_ref = np.linalg.svd(low, compute_uv=False)
    assert np.all(np.abs(s[:rank] - s_ref[:rank]) <= 1e-12 * s_ref[:rank])
    assert np.all(s[rank:] <= 1e-12 * s_ref[0])
    assert np.linalg.norm(low - (u * s) @ vt) <= 1e-12 * s_ref[0]
    assert np.allclose(vt @ vt.T, np.eye(15), atol=1e-12)


SMALL_SHAPES = [(1, 1), (3, 2), (2, 5), (4, 4), (5, 7), (64, 64), (65, 64)]


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("kind", ["k=1", "k=min"])
def test_small_sides_match_dense_svd(shape, kind):
    # A side below BLOCK starts from a narrower block; every side here is
    # spanned by the basis, where the solve is exact.
    dense = np.random.default_rng(20).random(shape) + 0.1
    k = 1 if kind == "k=1" else min(shape)
    got = truncated_svd(sparse.csr_array(dense), k, seed=5)
    u_ref, s_ref, vt_ref = sign_fixed_reference(dense, k)
    u, s, vt = got
    assert (u.shape, s.shape, vt.shape) == ((shape[0], k), (k,), (k, shape[1]))
    assert np.max(np.abs(s - s_ref) / s_ref) <= 1e-12
    assert np.max(np.abs(vt - vt_ref)) <= 1e-9
    assert np.max(np.abs(u - u_ref)) <= 1e-9
    again = truncated_svd(sparse.csr_array(dense), k, seed=5)
    for x, y in zip(got, again):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("shape", [(6, 5), (5, 9), (3, 3)])
def test_small_rank_deficient_matrix(shape):
    # Rank 2: the Krylov space is exhausted early and the basis is filled
    # with null-space directions up to the whole side.
    rng = np.random.default_rng(21)
    low = rng.random((shape[0], 2)) @ rng.random((2, shape[1]))
    k = min(shape)
    u, s, vt = truncated_svd(low, k, seed=0)
    s_ref = np.linalg.svd(low, compute_uv=False)
    assert np.all(np.abs(s[:2] - s_ref[:2]) <= 1e-12 * s_ref[:2])
    assert np.all(s[2:] <= 1e-12 * s_ref[0])
    assert np.linalg.norm(low - (u * s) @ vt) <= 1e-12 * s_ref[0]
    assert np.allclose(vt @ vt.T, np.eye(k), atol=1e-12)


def test_integer_ndarray_input():
    ints = np.array([[3, 0, 1, 2], [0, 4, 0, 1], [2, 1, 5, 0]], dtype=np.int64)
    u, s, vt = truncated_svd(ints, 3, seed=0)
    assert u.dtype == s.dtype == vt.dtype == np.float64
    u_ref, s_ref, vt_ref = sign_fixed_reference(ints.astype(np.float64), 3)
    assert np.max(np.abs(s - s_ref) / s_ref) <= 1e-12
    assert np.max(np.abs(vt - vt_ref)) <= 1e-9
    assert np.max(np.abs(u - u_ref)) <= 1e-9


@pytest.mark.parametrize("shape", [(100, 80), (80, 100)], ids=["doc-side", "term-side"])
def test_rerun_is_bit_identical(shape):
    a = sparse.csr_array(random_sparse(*shape, density=0.25, seed=16))
    first = truncated_svd(a, 9, seed=7)
    second = truncated_svd(a, 9, seed=7)
    for x, y in zip(first, second):
        assert x.tobytes() == y.tobytes()


def test_fix_signs_matches_per_vector_loop():
    def loop_reference(u, s, vt):
        for i in range(vt.shape[0]):
            j = int(np.argmax(np.abs(vt[i])))
            if vt[i, j] < 0:
                vt[i] = -vt[i]
                u[:, i] = -u[:, i]
        return u, s, vt

    rng = np.random.default_rng(17)
    u = rng.standard_normal((30, 6))
    vt = rng.standard_normal((6, 25))
    vt[2] = 0.0  # zero rows and signed zeros must come out the same too
    vt[3, ::2] = -0.0
    s = np.arange(6.0, 0.0, -1.0)
    expected = loop_reference(u.copy(), s.copy(), vt.copy())
    got = _fix_signs(u.copy(), s.copy(), vt.copy())
    for x, y in zip(got, expected):
        assert x.tobytes() == y.tobytes()


def test_debug_log_names_the_path(caplog):
    with caplog.at_level(logging.DEBUG, logger="litclust.lsa"):
        truncated_svd(sparse.csr_array(random_sparse(100, 80, seed=18)), 3)
    (krylov_msg,) = (r.getMessage() for r in caplog.records)
    assert "block Krylov on a side of 80" in krylov_msg
    for part in ("basis columns", "Rayleigh-Ritz rounds", "largest residual"):
        assert part in krylov_msg


def logged_solve(caplog, a, k):
    """The spectrum of a Krylov solve, its logged basis columns and its
    Rayleigh-Ritz rounds."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="litclust.lsa"):
        _, s, _ = truncated_svd(a, k, seed=0)
    (message,) = (r.getMessage() for r in caplog.records)
    counts = re.search(r"(\d+) basis columns, (\d+) Rayleigh-Ritz rounds", message)
    return s, int(counts.group(1)), int(counts.group(2))


def planted_weights():
    weighted = build_weighted_matrix(make_planted_corpus(vocab_per_topic=150), 0.5, 5)
    assert weighted.shape == (600, 400)
    return weighted.weights


def test_residual_spacing_takes_fewer_rayleigh_ritz_rounds(caplog, monkeypatch):
    weights = planted_weights()
    s, _, spaced = logged_solve(caplog, weights, 15)
    # The fixed schedule: a step every RITZ_INTERVAL columns.
    monkeypatch.setattr(lsa_mod, "_ritz_gap", lambda *args: lsa_mod.RITZ_INTERVAL)
    s_fixed, _, fixed = logged_solve(caplog, weights, 15)
    assert spaced < fixed
    s_ref = np.linalg.svd(weights.toarray(), compute_uv=False)[:15]
    for got in (s, s_fixed):
        assert np.all(np.abs(got - s_ref) <= 1e-12 * s_ref[0])


def test_squared_growth_takes_fewer_basis_columns(caplog):
    # Grown from A^T A q, as block Lanczos on the Gram operator does, this
    # solve took 196 columns.
    _, columns, _ = logged_solve(caplog, planted_weights(), 15)
    assert columns == 140


def below_square_floor():
    """Random sparse columns scaled so that sigma_15 is about 1e-4 of
    sigma_1, below the sigma_1 / 1000 that (A^T A)^2 q resolves; the side
    of 600 is above the 15 + BASIS_MARGIN columns the basis may hold."""
    dense = random_sparse(700, 600, density=0.3, seed=22)
    return dense * 10.0 ** (-4 * np.arange(600) / 14)


@pytest.mark.parametrize("side", ["doc-side", "term-side"])
def test_singular_values_below_the_square_floor_match_dense(side):
    dense = below_square_floor() if side == "doc-side" else below_square_floor().T
    u, s, vt = truncated_svd(sparse.csr_array(dense), 15, seed=0)
    s_all = np.linalg.svd(dense, compute_uv=False)
    assert 5e-5 < s_all[14] / s_all[0] < 2e-4
    assert np.all(np.abs(s - s_all[:15]) <= 1e-12 * s_all[0])
    best = np.sqrt(np.sum(s_all[15:] ** 2))
    assert np.linalg.norm(dense - (u * s) @ vt) <= best * (1 + 1e-9)
    assert np.allclose(vt @ vt.T, np.eye(15), atol=1e-12)
    assert np.allclose(u.T @ u, np.eye(15), atol=1e-12)


RESIDUAL_CASES = {
    "planted": lambda: (planted_weights(), 15),
    "block_diag-2": lambda: (repeated_spectrum(2, (300, 250)), 20),
    "block_diag-4": lambda: (repeated_spectrum(4, (150, 120)), 20),
    "rank-10": lambda: (sparse.csr_array(low_rank(10)), 15),
    "below-floor": lambda: (sparse.csr_array(below_square_floor()), 15),
}


@pytest.mark.parametrize("case", RESIDUAL_CASES)
def test_returned_triplets_meet_the_residual_tolerance(case):
    a, k = RESIDUAL_CASES[case]()
    dense = a.toarray()
    u, s, vt = truncated_svd(a, k, seed=0)
    # The solver works on the smaller side's Gram operator.
    side = min(dense.shape)
    v = vt.T if dense.shape[1] == side else u
    gram_v = dense.T @ (dense @ v) if dense.shape[1] == side else dense @ (dense.T @ v)
    residual = np.linalg.norm(gram_v - v * s**2, axis=0)
    # Recomputing A^T A v in float64 rounds by at most about side * eps * s_1^2.
    slack = side * np.finfo(np.float64).eps * s[0] ** 2
    assert np.all(residual <= lsa_mod.RESIDUAL_TOL * s[0] ** 2 + slack)


def test_ritz_gap_extrapolates_the_residual_decay():
    gap = lsa_mod._ritz_gap
    assert gap(None, 16, 1e-3, 1e-12) == lsa_mod.RITZ_INTERVAL
    # 100x over 16 columns; 1e4 more to go takes 32 columns at that
    # rate, and the next step goes halfway.
    assert gap((16, 1e-2), 32, 1e-4, 1e-8) == 16
    assert gap((16, 1e-2), 32, 1e-9, 1e-10) == lsa_mod.BLOCK
    # No gap exceeds the basis: at 32 columns, a rate that would take
    # 104 more, no decay or a zero target all give 32.
    assert gap((16, 1e-2), 32, 1e-4, 1e-30) == 32
    assert gap((16, 1e-4), 32, 1e-4, 1e-8) == 32
    assert gap((16, 1e-4), 32, 1e-3, 0.0) == 32
    # Past 64 columns the longest gap is MAX_RITZ_GAP.
    assert gap((64, 1e-2), 96, 1e-4, 1e-30) == lsa_mod.MAX_RITZ_GAP
    assert gap((64, 1e-4), 96, 1e-4, 1e-8) == lsa_mod.MAX_RITZ_GAP


PIPELINE_SCRIPT = """
import sys
from litclust import build_weighted_matrix, kmeans, load_corpus, score_clustering
from litclust.lsa import reduce
corpus = load_corpus(sys.argv[1])
emb = reduce(build_weighted_matrix(corpus, d_percent=0.5, rank_cutoff=5), 15, seed=0)
clustering = kmeans(emb.vectors, 4, seed=0)
score_clustering(clustering.assignments, corpus.labels())
print(sorted(m for m in ("scipy.linalg", "scipy.sparse.linalg") if m in sys.modules))
"""


def test_pipeline_does_not_import_scipy_linear_algebra(tmp_path):
    # Either module costs 8-10 MB of resident memory at import; the
    # pipeline needs neither.  The corpus is big enough for the Krylov path.
    path = tmp_path / "corpus.jsonl"
    replace_file(path, jsonl_lines(make_planted_corpus(n_topics=4, docs_per_topic=30, tokens_per_doc=25)))
    out = subprocess.run(
        [sys.executable, "-c", PIPELINE_SCRIPT, str(path)],
        capture_output=True, text=True, env=subprocess_env(), check=True,
    )
    assert out.stdout.strip() == "[]"


def test_sign_convention_fixed():
    dense = random_sparse(70, 68, seed=10)
    for seed in (0, 1, 2):
        _, _, vt = truncated_svd(sparse.csr_array(dense), 5, seed=seed)
        for i in range(vt.shape[0]):
            assert vt[i, np.argmax(np.abs(vt[i]))] > 0


class TestEstimator:
    def test_fit_transform(self):
        w = as_weighted(random_sparse(30, 20, seed=11))
        est = TruncatedLsa(n_dims=4, seed=0)
        emb = est.fit_transform(w)
        assert isinstance(emb, EmbeddingMatrix)
        assert est.singular_values_.shape == (4,)

    def test_params(self):
        est = TruncatedLsa(n_dims=9, seed=5)
        assert est.get_params() == {"n_dims": 9, "seed": 5}
        est.set_params(n_dims=3)
        assert est.n_dims == 3


def test_dump_embedding_format(tmp_path):
    emb = EmbeddingMatrix(
        docs=("a", "b"),
        dims=2,
        vectors=np.array([[1.23456789012, -2.0], [0.000012345, 3.5]]),
        singular_values=np.array([2.0, 1.0]),
    )
    path = tmp_path / "emb.tsv"
    replace_file(path, embedding_lines(emb))
    lines = path.read_text().splitlines()
    assert lines[0] == "a\t1.23456789012\t-2.0"
    assert lines[1] == "b\t1.2345e-05\t3.5"


def embedding_of(vectors):
    return EmbeddingMatrix(
        docs=tuple(f"d{i}" for i in range(len(vectors))),
        dims=vectors.shape[1],
        vectors=vectors,
        singular_values=np.ones(vectors.shape[1]),
    )


def test_embedding_reads_back_exactly(tmp_path):
    rng = np.random.default_rng(5)
    # Random bit patterns reach every exponent, subnormals included.
    bits = rng.integers(0, 2**64, size=600, dtype=np.uint64).view(np.float64)
    vectors = np.concatenate([
        rng.standard_normal((40, 6)),
        bits[np.isfinite(bits)][:240].reshape(40, 6),
        np.array([[-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.0]]),
        rng.integers(-5, 5, size=(3, 6)).astype(np.float64),
    ])
    emb = embedding_of(vectors)
    path = tmp_path / "emb.tsv"
    replace_file(path, embedding_lines(emb))
    docs, back = load_embedding(path)
    assert docs == emb.docs
    assert back.dtype == np.float64 and back.shape == vectors.shape
    assert back.tobytes() == vectors.tobytes()  # -0.0 keeps its sign bit


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
def test_any_finite_row_reads_back_exactly(tmp_path_factory, row):
    vectors = np.array([row, row[::-1]], dtype=np.float64)
    path = tmp_path_factory.mktemp("emb") / "emb.tsv"
    replace_file(path, embedding_lines(embedding_of(vectors)))
    assert load_embedding(path)[1].tobytes() == vectors.tobytes()


@pytest.mark.parametrize(
    "content,where",
    [
        (b"a\t1.0\t2.0\nb\t3.0\n", ":2:"),  # ragged
        (b"a\t1.0\nb\t2.0\t3.0\n", ":2:"),
        (b"a\t1.0\nb\n", ":2:"),  # no coordinates
        (b"a\t1.0\nb\tnan\n", ":2:"),
        (b"a\t-inf\n", ":1:"),
        (b"a\t1e400\n", ":1:"),
        (b"a\t1.0\t\n", ":1:"),
        (b"a\t0x1p3\n", ":1:"),
        (b"a\t1,5\n", ":1:"),
        (b"a\t1.0\nb\t\xff\n", ":2:"),
        (b"", ": no embedding rows"),
        (b"\n\n", ": no embedding rows"),
    ],
)
def test_malformed_embedding_raises_parse_error(tmp_path, content, where):
    path = tmp_path / "emb.tsv"
    path.write_bytes(content)
    with pytest.raises(ParseError, match=re.escape("emb.tsv" + where)):
        load_embedding(path)
