"""Classical (Torgerson) MDS of a distance matrix into 2D coordinates."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ._lazy import np
from .distance import DistanceMatrix, JointSquares, _row_blocks
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


def mds_project(
    dm: DistanceMatrix | JointSquares, index: Sequence[int] | None = None
) -> Projection2D:
    """Embed via double-centering and the top-2 non-negative eigenpairs.

    Point ``i`` of the map is row ``index[i]`` of ``dm`` (default: one point
    per row), so row ``a`` stands for as many identical points as ``index``
    names it. The map is that of the matrix with every row repeated that
    often, computed on ``dm`` alone (weighted classical MDS, Gower 1966):
    centring uses weighted means, the eigenpairs are those of W^½ B W^½ with
    W the diagonal of ``np.bincount(index)``, and the vectors are mapped back
    through W^-½. The repeated matrix has the same nonzero eigenvalues, so
    the same share, and the stress weighs each pair by ``w_a * w_b``. With
    unit weights every extra operation multiplies or divides by 1.0, which
    changes nothing.

    The whole spectrum comes from ``eigvalsh``; the two eigenvectors from
    Lanczos, or from ``eigh`` where Lanczos does not pin them down.
    Negative eigenvalues are clamped to zero, and a top eigenvalue within
    rounding of zero (at most n·eps·max|λ|) gives an all-zero axis. Axis
    signs are fixed by making positive the first coordinate of each axis that
    is not zero up to rounding, so output is fully deterministic.

    ``dm`` is a ``DistanceMatrix``, or the ``JointSquares`` of
    ``distance.joint_squares``; for either, the weights are the counts of
    ``index``. It holds one n x n array, ``b`` (and the eigenvectors while
    ``eigh`` runs), then blocks of rows: ``b`` is a copy of ``dm.values``
    squared, or the joint squares themselves, which are used up and whose
    distances the stress recomputes block by block.

    Raises ``ValueError`` when ``dm`` is empty, or ``index`` is not a 1-D
    integer array of rows of ``dm`` that names every row.
    """
    n = len(dm)
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
    if isinstance(dm, DistanceMatrix):
        d = dm.values
        b = d * d  # the one n x n buffer, centred in place below
        blocks = ((rows, d[rows]) for rows in _row_blocks(n))
    else:
        b, blocks = dm.squares, dm.blocks()
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
    b.flags.writeable = False  # a JointSquares' squares are used up: projecting them again fails
    del b
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
    stress = float(np.sqrt(_squared_residual(coords, blocks, w) / denom)) if denom > 0 else 0.0

    points = [(float(x), float(y)) for x, y in coords]
    return Projection2D(tuple(points[a] for a in index.tolist()), stress, share, diagnostics)


def _squared_residual(
    coords: np.ndarray, blocks: Iterable[tuple[slice, np.ndarray]], w: np.ndarray
) -> float:
    """Sum over all pairs of w_a * w_b * (2D distance - d)², one block of rows of d at a time.

    The 2D distances are direct, sqrt(dx*dx + dy*dy), built in place.
    """
    x, y = coords[:, 0], coords[:, 1]
    total = []
    for rows, d in blocks:
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
