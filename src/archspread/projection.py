"""Classical (Torgerson) MDS of a distance matrix into 2D coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (d**2) @ j
    b = (b + b.T) / 2.0  # symmetrize against round-off
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]

    diagnostics: list[str] = []
    top = np.clip(evals[:2], 0.0, None)
    coords = evecs[:, :2] * np.sqrt(top)
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

    embedded = np.sqrt(
        np.maximum(
            np.sum(coords**2, axis=1)[:, None]
            + np.sum(coords**2, axis=1)[None, :]
            - 2 * coords @ coords.T,
            0.0,
        )
    )
    denom = float(np.sum(d**2))
    stress = float(np.sqrt(np.sum((embedded - d) ** 2) / denom)) if denom > 0 else 0.0

    return Projection2D(
        ids=dm.ids,
        coords=tuple((float(x), float(y)) for x, y in coords),
        stress=stress,
        eigenvalue_share=share,
        diagnostics=tuple(diagnostics),
    )
