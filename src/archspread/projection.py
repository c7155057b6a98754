"""Classical (Torgerson) MDS of a distance matrix into 2D coordinates."""

from __future__ import annotations

from dataclasses import dataclass

from ._lazy import np

from .model import DistanceMatrix


@dataclass(frozen=True)
class Projection2D:
    """2D embedding of a distance matrix with fidelity diagnostics.

    ``stress`` is Kruskal stress-1 of the embedded vs. input distances;
    ``eigenvalue_share`` is the fraction of positive eigenvalue mass captured
    by the two retained axes. Sequence distances need not be Euclidean, so
    both are reported for the user to judge projection fidelity.
    """

    ids: tuple[str, ...]
    coords: tuple[tuple[float, float], ...]
    stress: float
    eigenvalue_share: float
    diagnostics: tuple[str, ...] = ()


def mds_project(dm: DistanceMatrix) -> Projection2D:
    """Embed via double-centering and the top-2 non-negative eigenpairs.

    Negative eigenvalues are clamped to zero (their axes contribute nothing).
    Axis signs are fixed by making the first nonzero coordinate of each axis
    positive, so output is fully deterministic.
    """
    n = len(dm)
    d = dm.values
    if n == 1:
        return Projection2D(dm.ids, ((0.0, 0.0),), 0.0, 1.0)

    d2 = d**2
    mean = d2.mean(axis=1)  # d is symmetric, so these are also the column means
    b = -0.5 * (d2 - mean[:, None] - mean[None, :] + mean.mean())
    evals, evecs = np.linalg.eigh(b)  # ascending, so the top two are the last two

    diagnostics: list[str] = []
    top = np.clip(evals[:-3:-1], 0.0, None)
    coords = evecs[:, :-3:-1] * np.sqrt(top)
    if np.all(top == 0.0):
        diagnostics.append("degenerate matrix: no positive eigenvalue mass, all-zero coordinates")

    for axis in range(2):
        col = coords[:, axis]
        nonzero = np.nonzero(col)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            coords[:, axis] = -col
    coords = coords + 0.0  # normalize -0.0

    positive_mass = float(np.sum(evals[evals > 0]))
    share = float(np.sum(top) / positive_mass) if positive_mass > 0 else 1.0
    share = min(share, 1.0)

    x, y = coords[:, 0], coords[:, 1]
    embedded = np.hypot(x[:, None] - x, y[:, None] - y)
    denom = float(np.sum(d2))
    stress = float(np.sqrt(np.sum((embedded - d) ** 2) / denom)) if denom > 0 else 0.0

    return Projection2D(
        ids=dm.ids,
        coords=tuple((float(x), float(y)) for x, y in coords),
        stress=stress,
        eigenvalue_share=share,
        diagnostics=tuple(diagnostics),
    )
