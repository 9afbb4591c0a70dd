"""Truncated SVD document embeddings.

Documents are embedded as the document-side singular vectors scaled by
the singular values, so Euclidean distances between embedding rows
approximate distances between the weighted matrix's document columns,
which is what the downstream clustering objective measures.

Every matrix goes through one block Krylov solver on the Gram operator
of its smaller side, ``x -> A^T (A x)`` or ``x -> A (A^T x)``, which is
applied and never formed.  The basis starts from a seeded Gaussian
block, at most as wide as that side, and keeps every block it grows,
each orthogonalized twice against all earlier ones.  Each new block is
grown from the squared operator, ``(A^T A)^2 q`` for the newest block
``q``: a polynomial in A^T A of twice the degree per basis column, which
doubles the relative gap between neighbouring eigenvalues, so the basis
converges in about a quarter fewer columns.  The first product,
``A^T A q``, fills that block's column of the Rayleigh-Ritz matrix
``Q^T A^T A Q``, and Rayleigh-Ritz with A^T A gives the Ritz pairs.  The
square carries a direction whose singular value is below about sigma_1 /
1000 only at the level of rounding; a block with such a direction is
grown from ``A^T A q`` instead, which resolves down to sigma_1 / 10^6.
Rayleigh-Ritz steps stop the iteration once every wanted Ritz pair
(theta, v) has an explicit residual ``|A^T A v - theta v|`` of at most
``RESIDUAL_TOL`` of the largest Ritz value, or once the basis spans the
whole side, where the result is exact.  The first two steps are
``RITZ_INTERVAL`` columns apart; each later one goes halfway to where the
residual would reach the tolerance if it kept decaying at the rate
measured between the last two, between one block and ``MAX_RITZ_GAP``
columns ahead and never more than the basis already holds.  Singular
values and the other side then come from an SVD of A times the Ritz
vectors.  Only numpy's linear algebra is used: importing scipy's dense
or sparse linear algebra would add 8-10 MB to every process.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from litclust.base import BaseEstimator, check_positive_int, tsv_rows
from litclust.errors import ConvergenceFailure, DimsTooLarge, ParseError
from litclust.vectorize import WeightedMatrix

logger = logging.getLogger(__name__)

# Width of each Krylov block.  A singular value repeated up to this many
# times is resolved in full, which single-vector Lanczos can miss.
BLOCK = 4
# Basis columns between the first two Rayleigh-Ritz steps; the later
# gaps follow the residual, up to MAX_RITZ_GAP.
RITZ_INTERVAL = 16
MAX_RITZ_GAP = 4 * RITZ_INTERVAL
# A Ritz pair has converged when its residual is at most this fraction of
# the largest Ritz value.
RESIDUAL_TOL = 1e-12
# Columns the basis may hold beyond the k wanted; running out of them
# before convergence raises ConvergenceFailure.
BASIS_MARGIN = 512


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Dense documents-by-dims coordinates plus the singular spectrum."""

    docs: tuple[str, ...]
    dims: int
    vectors: np.ndarray
    singular_values: np.ndarray


def reduce(w: WeightedMatrix, n_dims: int, seed: int = 0) -> EmbeddingMatrix:
    """Embed documents in ``n_dims`` dimensions via truncated SVD.

    Deterministic for a fixed seed; the sign of each singular vector is
    fixed by making its largest-magnitude coordinate positive.
    """
    _, s, vt = truncated_svd(w.weights, n_dims, seed=seed)
    vectors = vt.T * s  # row j = document j scaled by the singular values
    return EmbeddingMatrix(
        docs=w.docs,
        dims=n_dims,
        vectors=np.ascontiguousarray(vectors),
        singular_values=s,
    )


def truncated_svd(
    a, k: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``k`` singular triplets of a sparse or dense matrix.

    Seeded block Krylov iteration on the smaller side's Gram operator
    (see the module docstring), exact once its basis spans that side.
    ``k`` must be an integer from 1 to ``min(a.shape)``.
    """
    check_positive_int(k, "k")
    m, n = a.shape
    if k > min(m, n):
        raise DimsTooLarge(
            f"k={k} dimensions exceed min(shape)={min(m, n)} of this {m} x {n} matrix"
        )
    if m < n:
        v, s, ut = _block_krylov_svd(a.T, k, seed)
        return _fix_signs(ut.T, s, v.T)
    return _fix_signs(*_block_krylov_svd(a, k, seed))


def _block_krylov_svd(a, k: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``k`` singular triplets of ``a``, which has no more columns than rows."""
    side = a.shape[1]
    at = a.T
    limit = min(side, k + BASIS_MARGIN)
    rng = np.random.default_rng(seed)
    # Column-major, so appending a block writes only that block's pages.
    q = np.empty((side, limit), order="F")
    # q^T A^T A q one block column at a time, as (first column, its rows
    # down to the diagonal): the upper triangle, which is all eigh reads.
    # Assembled at each Rayleigh-Ritz step; a limit x limit buffer held
    # throughout raised the peak RSS of repeated solves by 2-3 MB.
    projections = []
    start, end = 0, min(BLOCK, side)
    q[:, :end], _ = np.linalg.qr(rng.standard_normal((side, end)))
    scale = 0.0  # largest diagonal entry of Q^T A^T A Q so far, at most theta_1
    due = max(k, RITZ_INTERVAL)  # basis columns at the next Rayleigh-Ritz step
    last = None  # (basis columns, residual) at the previous step
    rounds = 0
    while True:
        basis = q[:, :end]
        g = at @ (a @ q[:, start:end])
        coef = basis.T @ g
        projections.append((start, coef))
        width = min(BLOCK, limit - end)
        if width:
            scale = max(scale, float(coef[start:end].diagonal().max()))
            y = at @ (a @ g)
            y -= basis @ (basis.T @ y)
            u, weak = _directions(y, width, RESIDUAL_TOL * scale**2)
            if weak.any():
                # (A^T A)^2 q holds directions with singular values below
                # about sigma_1 / 1000 only at the level of rounding.
                u, weak = _directions(g - basis @ coef, width, RESIDUAL_TOL * scale)
            q[:, end:end + width] = _extend(u, weak, basis, rng)
        if end >= due or not width:
            rounds += 1
            h = np.zeros((end, end))
            for col, block in projections:
                h[:len(block), col:col + block.shape[1]] = block
            theta, coords = np.linalg.eigh(h, UPLO="U")
            theta, coords = theta[::-1][:k], coords[:, ::-1][:, :k]
            top = max(float(theta[0]), 0.0)
            ritz = basis @ coords
            image = a @ ritz
            residual = float(np.linalg.norm(at @ image - ritz * theta, axis=0).max())
            if end == side or residual <= RESIDUAL_TOL * top:
                break
            if not width:
                raise ConvergenceFailure(
                    f"Ritz residual {residual:.2e} of the top {k} is above "
                    f"{RESIDUAL_TOL:g} x {top:.3g} with the basis at its "
                    f"{limit}-column limit"
                )
            due = end + _ritz_gap(last, end, residual, RESIDUAL_TOL * top)
            last = (end, residual)
        start, end = end, end + width
    logger.debug(
        "truncated_svd: block Krylov on a side of %d, %d basis columns, "
        "%d Rayleigh-Ritz rounds, largest residual %.2e of the top Ritz value",
        side, end, rounds, residual / top if top > 0 else 0.0,
    )
    u, s, wt = np.linalg.svd(image, full_matrices=False)
    return u, s, wt @ ritz.T


def _ritz_gap(last, end: int, residual: float, target: float) -> int:
    """Basis columns to add before the next Rayleigh-Ritz step, after one
    at ``end`` columns left ``residual`` above ``target``.

    With a previous step ``last`` = (columns, residual), the gap is half
    the distance at which the residual would reach ``target`` if it kept
    decaying at the per-column rate measured since then, within [BLOCK,
    MAX_RITZ_GAP]; a residual that did not decay gets the longest gap.
    Without a previous step it is ``RITZ_INTERVAL``.  The residual falls
    faster as the basis grows, so the full distance overshoots: on
    generated 1,500- and 3,000-document corpora it grew the basis by
    12-16% and took longer than a step every ``RITZ_INTERVAL`` columns.
    No gap exceeds ``end``, so the basis at most doubles between steps: a
    residual that plateaus and then drops steeply is measured before the
    plateau's slow rate can push the next step far past convergence.
    """
    if last is None:
        return RITZ_INTERVAL
    prev_end, prev_residual = last
    if residual >= prev_residual or target <= 0.0:
        return min(MAX_RITZ_GAP, end)
    decay = math.log(prev_residual / residual) / (end - prev_end)
    need = math.ceil(math.log(residual / target) / decay / 2)
    return min(max(need, BLOCK), MAX_RITZ_GAP, end)


def _directions(y, width: int, floor: float):
    """The top ``width`` left singular vectors of ``y``, and which of them
    have a singular value at most ``floor``."""
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    return u[:, :width], s[:width] <= floor


def _extend(u, weak, basis, rng):
    """Orthonormal columns that extend ``basis`` towards the directions ``u``.

    ``u`` was orthogonalized against ``basis`` once, before it was
    normalized; this is the second pass.  The ``weak`` directions are
    taken as exhausted and replaced by seeded random ones, so the basis
    keeps growing once the Krylov space is invariant, as it is when the
    matrix has rank below k.
    """
    if weak.any():
        fill = rng.standard_normal((len(u), int(weak.sum())))
        u[:, weak] = fill - basis @ (basis.T @ fill)
    u -= basis @ (basis.T @ u)
    return np.linalg.qr(u)[0]


def _fix_signs(
    u: np.ndarray, s: np.ndarray, vt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Make the largest-magnitude coordinate of each right singular vector positive."""
    peak = np.take_along_axis(vt, np.argmax(np.abs(vt), axis=1)[:, None], axis=1)
    signs = np.where(peak < 0, -1.0, 1.0)
    vt *= signs
    u *= signs.T
    return u, s, vt


class TruncatedLsa(BaseEstimator):
    """Estimator facade over :func:`reduce`.

    There is no transform for another matrix: ``fit_transform`` returns
    the embedding of the matrix it was fit on.
    """

    def __init__(self, n_dims: int = 15, seed: int = 0):
        self.n_dims = n_dims
        self.seed = seed

    def fit(self, w: WeightedMatrix, y=None) -> "TruncatedLsa":
        self.embedding_ = reduce(w, self.n_dims, seed=self.seed)
        self.singular_values_ = self.embedding_.singular_values
        return self

    def fit_transform(self, w: WeightedMatrix, y=None) -> EmbeddingMatrix:
        return self.fit(w).embedding_


def embedding_lines(emb: EmbeddingMatrix) -> Iterator[bytes]:
    """TSV lines: doc id then each coordinate as ``repr(float)``, the
    shortest decimal that reads back as the same float64, so
    ``load_embedding`` returns the vectors exactly."""
    for doc_id, row in zip(emb.docs, emb.vectors.tolist()):
        yield ("\t".join([doc_id, *map(repr, row)]) + "\n").encode()


def load_embedding(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """The doc ids and float64 vectors of ``embedding_lines``.  A line
    that is not an id and finite numbers, a row of another width than the
    first, or a file without rows raises ParseError naming the file (and
    line)."""
    docs, coords, width = [], [], None
    for lineno, (doc_id, *fields) in tsv_rows(path):
        try:
            row = list(map(float, fields))
        except ValueError:
            row = []
        if not row or not all(map(math.isfinite, row)):
            raise ParseError(f"{path}:{lineno}: expected '<doc id>\\t<coordinate>...' of finite numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}:{lineno}: {len(row)} coordinates, but the first row has {width}")
        docs.append(doc_id)
        coords += row
    if not docs:
        raise ParseError(f"{path}: no embedding rows")
    return tuple(docs), np.array(coords, dtype=np.float64).reshape(len(docs), width)
