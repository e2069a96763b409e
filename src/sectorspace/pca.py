"""Standardization, principal axes, and barycenters in sector space.

The PCA plane is fitted once on the pooled matrix of standardized
investor-year share vectors; yearly barycenters and individual strategies
are then projected into that single fixed plane so trajectories across
years and stages are comparable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .profiles import ProfileTable, profiles_by_year, share_matrix


@dataclass(frozen=True)
class StandardizationParams:
    """Column means and sample standard deviations (ddof=1).

    Constant columns keep std 0 here; transforms send them to exactly 0
    instead of dividing by it.
    """

    means: np.ndarray
    stds: np.ndarray
    constant_columns: frozenset[int]

    @property
    def safe_stds(self) -> np.ndarray:
        stds = self.stds.copy()
        if self.constant_columns:
            stds[list(self.constant_columns)] = 1.0
        return stds


def standardize(matrix: np.ndarray) -> tuple[np.ndarray, StandardizationParams]:
    """Center each column to mean 0 and scale to sample std 1.

    Columns with no usable spread (exact ties, or spread so small the
    variance underflows) become all-zero and are flagged in the returned
    params. Requires at least two rows.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise AnalysisError("standardize needs a matrix with at least 2 rows")
    means = matrix.mean(axis=0)
    stds = matrix.std(axis=0, ddof=1)
    # ptp catches exact ties; stds == 0 catches spreads so small the
    # variance underflows, which would otherwise divide by zero below
    constant = (np.ptp(matrix, axis=0) == 0) | (stds == 0.0)
    stds = np.where(constant, 0.0, stds)
    params = StandardizationParams(
        means=means,
        stds=stds,
        constant_columns=frozenset(np.flatnonzero(constant).tolist()),
    )
    out = (matrix - means) / params.safe_stds
    if constant.any():
        out[:, constant] = 0.0
    return out, params


def apply_standardization(vectors: np.ndarray, params: StandardizationParams) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape[-1] != params.means.shape[0]:
        raise AnalysisError(
            f"dimension mismatch: got {vectors.shape[-1]}, expected {params.means.shape[0]}"
        )
    out = (vectors - params.means) / params.safe_stds
    if params.constant_columns:
        out[..., list(params.constant_columns)] = 0.0
    return out


@dataclass(frozen=True)
class PCAModel:
    """Principal directions of the standardized strategy cloud.

    ``axes`` rows are orthonormal; ``explained_variance`` holds the
    matching covariance eigenvalues in non-increasing order and
    ``total_variance`` the full covariance trace. Fitted models are
    immutable and safe for concurrent projection.
    """

    axes: np.ndarray
    explained_variance: np.ndarray
    total_variance: float
    params: StandardizationParams

    @property
    def n_components(self) -> int:
        return self.axes.shape[0]

    @property
    def n_features(self) -> int:
        return self.axes.shape[1]


def _fix_signs(axes: np.ndarray) -> np.ndarray:
    # Flip each axis so its largest-|loading| entry is positive; the
    # lowest dimension index wins ties. Removes eigenvector sign freedom.
    axes = axes.copy()
    for i, row in enumerate(axes):
        anchor = np.argmax(np.abs(row))
        if row[anchor] < 0:
            axes[i] = -row
    return axes


def fit_pca(standardized: np.ndarray, n_components: int,
            params: StandardizationParams) -> PCAModel:
    """Eigendecompose the P x P sample covariance of an already-standardized matrix.

    P is small here, so the covariance route is exact and cheap. The model
    keeps the top ``n_components`` axes and the ``params`` that produced
    ``standardized``, which :func:`project` applies to raw vectors;
    ``total_variance`` retains the covariance trace for variance accounting.
    """
    standardized = np.asarray(standardized, dtype=float)
    n, p = standardized.shape
    if not 1 <= n_components <= p:
        raise AnalysisError(f"n_components must be in [1, {p}]")
    cov = standardized.T @ standardized / (n - 1)
    try:
        eigvals, eigvecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError(
            f"eigendecomposition failed (cond={np.linalg.cond(cov):.3e}): {exc}"
        ) from exc
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    axes = _fix_signs(eigvecs[:, order].T[:n_components])
    return PCAModel(
        axes=axes,
        explained_variance=eigvals[:n_components].copy(),
        total_variance=float(np.trace(cov)),
        params=params,
    )


def fit_pca_model(matrix: np.ndarray, n_components: int) -> PCAModel:
    """Standardize a raw profile matrix and fit the principal axes in one step."""
    standardized, params = standardize(matrix)
    return fit_pca(standardized, n_components, params)


def project(model: PCAModel, vector: np.ndarray) -> np.ndarray:
    """Coordinates of a raw sector-space vector (or row-stack) in the model plane."""
    # one vector-matrix product per row: a row gets the same bits alone or stacked
    return (apply_standardization(vector, model.params)[..., None, :] @ model.axes.T)[..., 0, :]


def project_sigma(model: PCAModel, sigma: np.ndarray) -> np.ndarray:
    """First-order propagation of per-coordinate uncertainties through projection.

    Projection is affine, z = A (x - mu) / s, so the variance along axis a
    is sum_k (A[a,k]/s_k)^2 sigma_k^2 for independent coordinate errors.
    """
    scaled = model.axes / model.params.safe_stds
    if model.params.constant_columns:
        scaled = scaled.copy()
        scaled[:, list(model.params.constant_columns)] = 0.0
    return np.sqrt(scaled**2 @ np.asarray(sigma, dtype=float) ** 2)


def sector_positions(model: PCAModel, sectors) -> list[tuple[str, float, float]]:
    """Each parent tag's loading pair on the first two axes, for the tag map."""
    if model.n_components < 2:
        raise AnalysisError("sector positions need a model with >= 2 components")
    if len(sectors) != model.n_features:
        raise AnalysisError("sector list does not match model dimension")
    return [
        (tag, float(model.axes[0, j]), float(model.axes[1, j]))
        for j, tag in enumerate(sectors)
    ]


@dataclass(frozen=True)
class BarycenterPoint:
    """Round-weighted mean of normalized investor strategies for one year.

    ``coords[k] = (1/N) sum_i x_{i,k} n_i`` with ``n_i`` investor i's round
    count, ``N`` the year's total; ``sigma`` is the weighted standard error
    sqrt(sum_i n_i (x_{i,k} - coords[k])^2 / (N (N - 1))) per coordinate.
    """

    year: int
    coords: np.ndarray
    weight: float
    sigma: np.ndarray


def barycenter(profiles: ProfileTable) -> BarycenterPoint:
    if not len(profiles):
        raise AnalysisError("barycenter of an empty profile list")
    years = np.unique(profiles.years).tolist()
    if len(years) != 1:
        raise AnalysisError(f"profiles span multiple years: {years}")
    weights = profiles.rounds.sum(axis=1)
    active = weights > 0
    if not active.any():
        raise AnalysisError("all profiles have zero activity")
    shares = share_matrix(profiles.take(active))
    weights = weights[active]
    total = weights.sum()
    coords = weights @ shares / total
    if total > 1:
        dispersion = weights @ (shares - coords) ** 2 / (total * (total - 1.0))
        sigma = np.sqrt(dispersion)
    else:
        sigma = np.zeros_like(coords)
    return BarycenterPoint(year=years[0], coords=coords, weight=float(total), sigma=sigma)


@dataclass(frozen=True)
class TrajectoryPoint:
    year: int
    coords: np.ndarray
    sigma: np.ndarray


def barycenter_trajectory(profiles: ProfileTable, model: PCAModel) -> list[TrajectoryPoint]:
    """Per-year barycenters of ``profiles`` projected into the model plane, years ascending.

    Years with no activity are omitted.
    """
    by_year = profiles_by_year(profiles)
    if not by_year:
        raise AnalysisError("no profiles to build a trajectory from")
    points = []
    for year, year_profiles in by_year.items():
        center = barycenter(year_profiles)
        points.append(TrajectoryPoint(
            year=year,
            coords=project(model, center.coords),
            sigma=project_sigma(model, center.sigma),
        ))
    return points


def fit_on_profiles(profiles: ProfileTable, n_components: int = 2) -> PCAModel:
    """Fit the shared plane on the pooled normalized investor-year matrix."""
    return fit_pca_model(share_matrix(profiles), n_components)
