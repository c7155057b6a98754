"""Classical (Torgerson) MDS of a distance matrix into 2D coordinates."""

from __future__ import annotations

import math
from typing import Sequence

from ._lazy import np
from .distance import _row_blocks
from .model import _Record


class Projection2D(_Record):
    """2D embedding of a distance matrix with fidelity diagnostics.

    ``coords`` holds one ``(x, y)`` pair per point, in the order of the index
    given to ``mds_project``. ``stress`` is Kruskal stress-1 of the embedded
    vs. input distances; ``eigenvalue_share`` is the fraction of positive
    eigenvalue mass captured by the two retained axes. Sequence distances
    need not be Euclidean, so both are reported for the user to judge
    projection fidelity.
    """

    __slots__ = __match_args__ = ("coords", "stress", "eigenvalue_share", "diagnostics")
    coords: tuple[tuple[float, float], ...]
    stress: float
    eigenvalue_share: float
    diagnostics: tuple[str, ...]

    def __init__(
        self,
        coords: tuple[tuple[float, float], ...],
        stress: float,
        eigenvalue_share: float,
        diagnostics: tuple[str, ...] = (),
    ) -> None:
        self._fill(coords, stress, eigenvalue_share, diagnostics)


_EPS = 2.220446049250313e-16  # float64 machine epsilon
# Lanczos is accepted only where the top two eigenpairs are well determined:
# both gaps above _GAP and both residual norms within _RESIDUAL, relative to
# the largest |eigenvalue|, after at most _STEPS iterations.
_GAP = 1e-3
_RESIDUAL = 16 * _EPS
_STEPS = 128
# Each axis takes the sign of its first coordinate above this share of its
# largest |coordinate|, so a coordinate that is 0 up to rounding cannot flip it.
_SIGN_FLOOR = 1e-9
# A d² taken back from the centred matrix at or below this share of
# |G_aa| + |G_bb| is rounding, and reads 0. Each row with itself, and two rows
# with equal distances to every row, come back within ~5 eps of it (2 eps
# measured), so they read exactly 0.
_ZERO_SQUARE = 16 * _EPS
_DEGENERATE = ("degenerate matrix: no positive eigenvalue mass, all-zero coordinates",)


def _top_two_lanczos(b: np.ndarray, evals: np.ndarray) -> np.ndarray | None:
    """Unit eigenvectors of ``b`` for its two largest eigenvalues, or None.

    Lanczos iteration with full reorthogonalisation (Gram–Schmidt, twice per
    step), from a fixed start vector with entries of both signs, since ``b``
    maps the all-positive vector of root weights to 0. It stops once
    both top Ritz vectors are exact to rounding: residual estimate / gap <=
    eps. The result is None unless ``evals`` (ascending, from ``eigvalsh``)
    has both gaps λ1 − λ2 and λ2 − λ3 clearly nonzero and the two Ritz pairs
    match λ1 and λ2 with residual norms at rounding level; the caller then
    runs ``eigh``.
    """
    if len(evals) < 3:
        return None
    n = len(b)
    scale = max(-evals[0], evals[-1])
    gap = min(evals[-1] - evals[-2], evals[-2] - evals[-3])
    if gap <= _GAP * scale:
        return None
    basis = np.empty((min(n, _STEPS), n))
    tridiagonal = np.zeros((len(basis), len(basis)))  # its leading j + 1 rows and columns at step j
    q = np.arange(1.0, n + 1.0) * 0.6180339887498949 % 1.0 - 0.5  # a Weyl sequence
    q /= np.linalg.norm(q)
    for j in range(len(basis)):
        basis[j] = q
        w = b @ q
        tridiagonal[j, j] = q @ w
        done = basis[: j + 1]
        for _ in range(2):
            w -= (done @ w) @ done
        beta = np.linalg.norm(w)
        theta, s = np.linalg.eigh(tridiagonal[: j + 1, : j + 1])
        if np.all(np.abs(beta * s[-1, -2:]) <= _EPS * gap):
            break
        q = w / beta
        if j + 1 < len(basis):
            tridiagonal[j, j + 1] = tridiagonal[j + 1, j] = beta
    vectors = done.T @ s[:, :-3:-1]
    top = theta[:-3:-1]
    residual = np.linalg.norm(b @ vectors - vectors * top, axis=0)
    tol = _RESIDUAL * scale
    if np.all(np.abs(top - evals[:-3:-1]) <= tol) and np.all(residual <= tol):
        return vectors
    return None


def mds_project(squares: np.ndarray, index: Sequence[int] | None = None) -> Projection2D:
    """Embed via double-centering and the top-2 non-negative eigenpairs.

    ``squares`` is a writeable square float64 array of squared distances:
    the one ``distance.joint_squares`` returns, or ``dm.values * dm.values``
    of a ``DistanceMatrix``. It is the one n x n array held (beside the
    eigenvectors while ``eigh`` runs), then blocks of rows: it is centred in
    place and so used up, and the stress takes its distances back from it,
    block by block. Each d² comes back within a few ulps of the largest one,
    and at exactly 0 where that is rounding: for each row with itself, and
    for two rows with equal distances.

    Point ``i`` of the map is row ``index[i]`` of ``squares`` (default: one
    point per row), so row ``a`` stands for as many identical points as
    ``index`` names it. The map is that of the matrix with every row
    repeated that often, computed on ``squares`` alone (weighted classical
    MDS, Gower 1966): centring uses weighted means, the eigenpairs are those
    of W^½ B W^½ with W the diagonal of ``np.bincount(index)``, and the
    vectors are mapped back through W^-½. The repeated matrix has the same
    nonzero eigenvalues, so the same share, and the stress weighs each pair
    by ``w_a * w_b``. With unit weights every extra operation multiplies or
    divides by 1.0, which changes nothing.

    The whole spectrum comes from ``eigvalsh``; the two eigenvectors from
    Lanczos, or from ``eigh`` where Lanczos does not pin them down.
    Negative eigenvalues are clamped to zero, and a top eigenvalue within
    rounding of zero (at most n·eps·max|λ|) gives an all-zero axis. Axis
    signs are fixed by making positive the first coordinate of each axis that
    is not zero up to rounding, so output is fully deterministic.

    Raises ``ValueError`` when ``squares`` is not a square float64 array, or
    is empty, or ``index`` is not a 1-D integer array of rows of ``squares``
    that names every row.
    """
    b = squares  # the one n x n buffer, centred in place below
    square = isinstance(b, np.ndarray) and b.ndim == 2 and b.shape[0] == b.shape[1]
    if not (square and b.dtype == np.float64):
        got = f"{b.dtype} array of shape {b.shape}" if isinstance(b, np.ndarray) else type(b).__name__
        raise ValueError(f"squares must be a square float64 array, got {got}")
    n = len(b)
    if n == 0:
        raise ValueError("cannot project an empty distance matrix")
    index = np.arange(n) if index is None else np.asarray(index)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValueError(f"index must be a 1-D integer array, got {index.ndim}-D {index.dtype}")
    if index.size and (index.min() < 0 or index.max() >= n):
        raise ValueError(f"index must hold rows in [0, {n}), got {index.min()}..{index.max()}")
    w = np.bincount(index.astype(np.intp), minlength=n).astype(np.float64)
    if not w.all():
        raise ValueError(f"index leaves row {int(np.argmin(w))} of the distance matrix unused")
    total = float(w.sum())
    if n == 1:
        # One distinct point; repeated, it is a degenerate map.
        return Projection2D(((0.0, 0.0),) * len(index), 0.0, 1.0, _DEGENERATE if total > 1 else ())
    # The weighted row sums of the squares give the centring means and the
    # stress denominator.
    sums = np.empty(n)
    for rows in _row_blocks(n):
        np.sum(b[rows] * w, axis=1, out=sums[rows])
    denom = math.fsum(sums * w)
    mean = sums / total  # d is symmetric, so these are also the column means
    b -= mean[:, None]
    b -= mean[None, :]
    b += (mean * w).sum() / total
    root = np.sqrt(w)
    b *= -0.5 * root[:, None]
    b *= root
    evals = np.linalg.eigvalsh(b)  # ascending, so the top two are the last two
    top_vectors = _top_two_lanczos(b, evals)
    if top_vectors is None:
        evals, evecs = np.linalg.eigh(b)
        top_vectors = evecs[:, :-3:-1].copy()
        del evecs
    b.flags.writeable = False  # a squared matrix is used up: projecting it again fails
    top_vectors /= root[:, None]

    diagnostics: tuple[str, ...] = ()
    top = np.clip(evals[:-3:-1], 0.0, None)
    coords = top_vectors * np.sqrt(top)
    # An eigenvalue within rounding of 0 is 0: its axis would carry only noise.
    coords[:, top <= n * _EPS * np.max(np.abs(evals))] = 0.0
    if np.all(top == 0.0):
        diagnostics = _DEGENERATE

    for axis in range(2):
        col = coords[:, axis]
        decisive = np.flatnonzero(np.abs(col) > _SIGN_FLOOR * np.max(np.abs(col)))
        if decisive.size and col[decisive[0]] < 0:
            coords[:, axis] = -col
    coords = coords + 0.0  # normalize -0.0

    positive_mass = float(np.sum(evals[evals > 0]))
    share = float(np.sum(top) / positive_mass) if positive_mass > 0 else 1.0
    share = min(share, 1.0)
    stress = float(np.sqrt(_squared_residual(coords, b, w) / denom)) if denom > 0 else 0.0

    points = [(float(x), float(y)) for x, y in coords]
    return Projection2D(tuple(points[a] for a in index.tolist()), stress, share, diagnostics)


def _squared_residual(coords: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """Sum over all pairs of w_a * w_b * (2D distance - d)², one block of rows of d at a time.

    d comes back from the centred matrix ``b`` = W^½ G W^½, G = -½ J D² Jᵀ
    (Gower 1966): d²_ab = G_aa + G_bb - 2 G_ab, and 0 where that is within
    rounding of 0 or below it. The 2D distances are direct,
    sqrt(dx*dx + dy*dy), built in place.
    """
    root = np.sqrt(w)
    g = np.diagonal(b) / w
    rounding = _ZERO_SQUARE * np.abs(g)
    x, y = coords[:, 0], coords[:, 1]
    total = []
    for rows in _row_blocks(len(b)):
        d = b[rows] / (root[rows, None] * (-0.5 * root))  # -2 G, exactly
        d += g[rows, None]
        d += g
        np.copyto(d, 0.0, where=d <= rounding[rows, None] + rounding)
        np.sqrt(d, out=d)
        embedded = x[rows, None] - x
        embedded *= embedded
        dy = y[rows, None] - y
        dy *= dy
        embedded += dy
        np.sqrt(embedded, out=embedded)
        embedded -= d
        embedded *= embedded
        embedded *= w
        embedded *= w[rows, None]
        total.append(np.sum(embedded))
    return math.fsum(total)
