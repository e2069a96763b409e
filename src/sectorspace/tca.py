"""Tensor component analysis of investor x sector x year activity.

The activity tensor stacks one investor-by-sector matrix per year, each
standardized column-wise, and is decomposed into rank-R canonical polyadic
form by alternating least squares. Every component couples an investor
factor (who), a sector factor (where) and a temporal factor (when).

Stored models are canonical: factor columns have unit norm with all
magnitude in ``component_weights``, the investor and sector columns carry
a positive largest-|entry| sign (the temporal column absorbs the flips),
and components sort by non-increasing weight with the temporal column as
tiebreak. This pins down the CP scaling/sign/permutation freedoms so that
equal fits compare equal.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
# numpy loads np.random on first use; load it here, with the package, so the
# import never starts mid-run, where a signal handler that uses np.random
# would re-enter it
import numpy.random  # noqa: F401

from .errors import AnalysisError
from .ingest import RawInvestor
from .pca import StandardizationParams, standardize
from .profiles import InvestorYearProfile

logger = logging.getLogger(__name__)

RIDGE_EPS = 1e-10
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 500
DEFAULT_SIMILARITY_THRESHOLD = 0.8


@dataclass(frozen=True)
class StrategyTensor:
    """Standardized N x S x K activity tensor with its index maps."""

    values: np.ndarray
    investor_ids: tuple[str, ...]
    sectors: tuple[str, ...]
    years: tuple[int, ...]
    standardization: tuple[StandardizationParams, ...]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape


def build_tensor(profiles: list[InvestorYearProfile], years, sectors) -> StrategyTensor:
    """Assemble and per-slice standardize the activity tensor.

    ``sectors`` is an ontology or an explicit tag tuple; profile sectors it
    lacks are left out. The profiles share one sector order, as every
    ``build_profiles`` result does. Investors keep the same row in every
    yearly slice; rows for inactive years stay zero until standardization
    recenters them. Needs at least two years and two investors, otherwise
    the temporal factor (or a fiber std) is undefined.
    """
    sector_names = tuple(getattr(sectors, "parent_tags", sectors))
    years = tuple(sorted(years))
    if len(years) < 2:
        raise AnalysisError("tensor needs at least 2 years")
    investor_ids = tuple(sorted({p.investor_id for p in profiles}))
    if len(investor_ids) < 2:
        raise AnalysisError("tensor needs at least 2 investors")
    if len({p.vector.sectors for p in profiles}) > 1:
        raise AnalysisError("profiles carry differing sector orders")
    row = {iid: i for i, iid in enumerate(investor_ids)}
    slab = {year: k for k, year in enumerate(years)}

    # (tensor column, profile column) of every tag both sector lists name
    col, src = np.nonzero(np.array(sector_names, dtype=str)[:, None]
                          == np.array(profiles[0].vector.sectors, dtype=str))
    counts = np.vstack([p.vector.rounds_by_sector for p in profiles])[:, src]
    i = np.array([row[p.investor_id] for p in profiles])
    k = np.array([slab.get(p.year, -1) for p in profiles])
    kept = k >= 0
    values = np.zeros((len(investor_ids), len(sector_names), len(years)))
    np.add.at(values, (i[kept, None], col, k[kept, None]), counts[kept])

    params = []
    for k in range(len(years)):
        standardized, p_k = standardize(values[:, :, k])
        values[:, :, k] = standardized
        params.append(p_k)
    return StrategyTensor(
        values=values,
        investor_ids=investor_ids,
        sectors=sector_names,
        years=years,
        standardization=tuple(params),
    )


@dataclass(eq=False, frozen=True)
class CPModel:
    """Canonical rank-R CP decomposition of a strategy tensor."""

    rank: int
    investor_factors: np.ndarray
    sector_factors: np.ndarray
    temporal_factors: np.ndarray
    component_weights: np.ndarray
    seed: int
    investor_ids: tuple[str, ...] = ()
    sectors: tuple[str, ...] = ()
    years: tuple[int, ...] = ()
    error_history: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.investor_factors, self.sector_factors, self.temporal_factors)

    def dense(self) -> np.ndarray:
        a, b, c = self.factors
        return np.einsum("ir,jr,kr,r->ijk", a, b, c, self.component_weights)


def khatri_rao(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product; row (i*J + j) holds x[i]*y[j]."""
    r = x.shape[1]
    return (x[:, None, :] * y[None, :, :]).reshape(-1, r)


def _unfold(values: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(values, mode, 0).reshape(values.shape[mode], -1)


def _solve_factor(unfolding: np.ndarray, kr: np.ndarray, gram: np.ndarray,
                  warned: list[bool]) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares update for one factor; returns (factor, cross term M)."""
    m = unfolding @ kr
    if not np.isfinite(m).all() or not np.isfinite(gram).all():
        raise AnalysisError("non-finite values in ALS subproblem")
    if np.linalg.cond(gram) > 1e12:
        if not warned[0]:
            logger.warning("rank-deficient ALS subproblem; applying ridge %.0e", RIDGE_EPS)
            warned[0] = True
        gram = gram + RIDGE_EPS * np.eye(gram.shape[0])
    try:
        factor = np.linalg.solve(gram, m.T).T
    except np.linalg.LinAlgError:
        factor = np.linalg.solve(gram + RIDGE_EPS * np.eye(gram.shape[0]), m.T).T
    return factor, m


def canonicalize(a: np.ndarray, b: np.ndarray, c: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factors and weights of a CP model in the stored canonical form (see module doc)."""
    norms = [np.linalg.norm(f, axis=0) for f in (a, b, c)]
    weights = norms[0] * norms[1] * norms[2]
    a, b, c = (
        np.divide(f, n, out=f.copy(), where=n > 0)
        for f, n in zip((a, b, c), norms)
    )
    for r in range(a.shape[1]):
        if a[np.argmax(np.abs(a[:, r])), r] < 0:
            a[:, r] = -a[:, r]
            c[:, r] = -c[:, r]
        if b[np.argmax(np.abs(b[:, r])), r] < 0:
            b[:, r] = -b[:, r]
            c[:, r] = -c[:, r]
    order = sorted(range(a.shape[1]), key=lambda r: (-weights[r], tuple(c[:, r])))
    return a[:, order], b[:, order], c[:, order], weights[order]


def cp_als(tensor, rank: int, seed: int = 0, tol: float = DEFAULT_TOL,
           max_iter: int = DEFAULT_MAX_ITER) -> CPModel:
    """Fit a rank-R CP model by alternating least squares.

    Factors start i.i.d. uniform on [-1, 1] from the seeded generator, so a
    fixed seed reproduces the model bit for bit. Iteration stops when the
    relative change of the squared reconstruction error drops below ``tol``
    or after ``max_iter`` sweeps. Near-singular normal equations get a
    ridge of ``1e-10`` (with a warning); non-finite values abort.
    """
    values = tensor.values if isinstance(tensor, StrategyTensor) else np.asarray(tensor, float)
    n, s, k = values.shape
    if not 1 <= rank <= min(n, s * k):
        raise AnalysisError(f"rank must be in [1, {min(n, s * k)}], got {rank}")
    if tol <= 0:
        raise AnalysisError("tol must be positive")

    norm_sq = float(np.sum(values * values))
    if norm_sq == 0.0:
        raise AnalysisError("cannot decompose an all-zero tensor")
    unfold_0 = _unfold(values, 0)
    unfold_1 = _unfold(values, 1)
    unfold_2 = _unfold(values, 2)

    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, rank))
    b = rng.uniform(-1.0, 1.0, size=(s, rank))
    c = rng.uniform(-1.0, 1.0, size=(k, rank))

    warned = [False]
    errors = []
    prev_err_sq = None
    for _ in range(max_iter):
        a, _ = _solve_factor(unfold_0, khatri_rao(b, c), (b.T @ b) * (c.T @ c), warned)
        b, _ = _solve_factor(unfold_1, khatri_rao(a, c), (a.T @ a) * (c.T @ c), warned)
        c, m_c = _solve_factor(unfold_2, khatri_rao(a, b), (a.T @ a) * (b.T @ b), warned)

        # exact squared residual from Gram identities, no dense reconstruction
        fit_sq = float(np.sum((a.T @ a) * (b.T @ b) * (c.T @ c)))
        cross = float(np.sum(c * m_c))
        err_sq = max(norm_sq - 2.0 * cross + fit_sq, 0.0)
        errors.append(np.sqrt(err_sq / norm_sq))
        if prev_err_sq is not None:
            if abs(prev_err_sq - err_sq) < tol * max(prev_err_sq, np.finfo(float).tiny):
                break
        prev_err_sq = err_sq

    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise AnalysisError("ALS produced non-finite factors")
    a, b, c, weights = canonicalize(a, b, c)
    meta = tensor if isinstance(tensor, StrategyTensor) else None
    return CPModel(
        rank=rank,
        investor_factors=a,
        sector_factors=b,
        temporal_factors=c,
        component_weights=weights,
        seed=seed,
        investor_ids=meta.investor_ids if meta else (),
        sectors=meta.sectors if meta else (),
        years=meta.years if meta else (),
        error_history=np.array(errors),
    )


def reconstruction_error(model: CPModel, tensor) -> float:
    """Relative Frobenius residual ||T - That|| / ||T||."""
    values = tensor.values if isinstance(tensor, StrategyTensor) else np.asarray(tensor, float)
    if values.shape != (
        model.investor_factors.shape[0],
        model.sector_factors.shape[0],
        model.temporal_factors.shape[0],
    ):
        raise AnalysisError("model and tensor shapes do not match")
    norm = np.linalg.norm(values)
    if norm == 0.0:
        raise AnalysisError("zero-norm tensor has no relative error")
    return float(np.linalg.norm(values - model.dense()) / norm)


def _weight_agreement(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    biggest = np.maximum(w1[:, None], w2[None, :])
    with np.errstate(invalid="ignore", divide="ignore"):
        agreement = 1.0 - np.abs(w1[:, None] - w2[None, :]) / biggest
    return np.where(biggest > 0, agreement, 1.0)


def factor_match_score(model_a: CPModel, model_b: CPModel) -> float:
    """Permutation- and sign-invariant similarity of two equal-rank models.

    Components pair up through the assignment that maximizes the mean over
    components of |cos| x |cos| x |cos| across the three modes, damped by
    the relative agreement of the component weights.
    """
    if model_a.rank != model_b.rank:
        raise AnalysisError("factor match needs models of equal rank")
    score = _weight_agreement(model_a.component_weights, model_b.component_weights)
    for f1, f2 in zip(model_a.factors, model_b.factors):
        if f1.shape[0] != f2.shape[0]:
            raise AnalysisError("factor match needs models of equal shape")
        score = score * np.abs(f1.T @ f2)
    from scipy.optimize import linear_sum_assignment  # slow import, needed only here

    rows, cols = linear_sum_assignment(-score)
    return float(score[rows, cols].mean())


def model_similarity(models: list[CPModel]) -> float:
    """Mean pairwise factor match score across restarts."""
    if len(models) < 2:
        raise AnalysisError("model similarity needs at least 2 models")
    scores = [
        factor_match_score(models[i], models[j])
        for i in range(len(models))
        for j in range(i + 1, len(models))
    ]
    return float(np.mean(scores))


@dataclass(frozen=True)
class FitDiagnostics:
    """Per-rank scan results backing the error/similarity curves."""

    ranks: tuple[int, ...]
    restart_errors: dict[int, np.ndarray]
    best_error: dict[int, float]
    similarity: dict[int, float]
    chosen_rank: int
    best_models: dict[int, CPModel]
    similarity_threshold: float


def _restart_seed(seed: int, rank: int, restart: int) -> int:
    return int(np.random.SeedSequence([seed, rank, restart]).generate_state(1)[0])


def select_rank(ranks, best_error: dict[int, float], similarity: dict[int, float],
                similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD) -> int:
    """Pick the working rank from scan curves.

    The winner maximizes the error drop |err(R) - err(R-1)| gained by
    stepping up to R, among ranks whose cross-restart similarity is at or
    above the threshold. The first scanned rank is measured against the
    empty (rank-0) model, whose relative error is exactly 1, so it stays a
    legal candidate.
    """
    ranks = tuple(sorted(ranks))
    chosen = None
    chosen_gain = -1.0
    previous_error = 1.0
    for rank in ranks:
        gain = abs(best_error[rank] - previous_error)
        previous_error = best_error[rank]
        if similarity[rank] < similarity_threshold:
            continue
        if gain > chosen_gain:
            chosen, chosen_gain = rank, gain
    if chosen is None:
        raise AnalysisError(
            "no candidate rank reached model similarity "
            f">= {similarity_threshold}; review the threshold or widen the scan"
        )
    return chosen


def rank_scan(tensor: StrategyTensor, ranks, restarts: int = 5, seed: int = 0,
              tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
              similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD) -> FitDiagnostics:
    """Scan candidate ranks with multi-restart ALS and pick the working rank.

    For each rank the scan keeps the best-restart reconstruction error and
    the cross-restart model similarity. The chosen rank maximizes the
    error drop |err(R) - err(R-1)| achieved by stepping up to R (the first
    scanned rank is credited with its drop from the empty model, whose
    relative error is 1), among ranks whose similarity stays at or above
    the threshold: past the true rank the marginal gain collapses while
    restart agreement degrades.
    """
    ranks = tuple(sorted(ranks))
    if not ranks:
        raise AnalysisError("empty rank range")
    if restarts < 2:
        raise AnalysisError("rank scan needs at least 2 restarts")

    restart_errors: dict[int, np.ndarray] = {}
    best_error: dict[int, float] = {}
    similarity: dict[int, float] = {}
    best_models: dict[int, CPModel] = {}
    for rank in ranks:
        models = [
            cp_als(tensor, rank, seed=_restart_seed(seed, rank, j), tol=tol, max_iter=max_iter)
            for j in range(restarts)
        ]
        errors = np.array([reconstruction_error(m, tensor) for m in models])
        best = int(np.argmin(errors))
        restart_errors[rank] = errors
        best_error[rank] = float(errors[best])
        best_models[rank] = models[best]
        similarity[rank] = model_similarity(models)

    chosen = select_rank(ranks, best_error, similarity, similarity_threshold)
    return FitDiagnostics(
        ranks=ranks,
        restart_errors=restart_errors,
        best_error=best_error,
        similarity=similarity,
        chosen_rank=chosen,
        best_models=best_models,
        similarity_threshold=similarity_threshold,
    )


def top_investors(model: CPModel, component: int, k: int,
                  investors: dict[str, RawInvestor] | None = None
                  ) -> list[tuple[str, float, str]]:
    """The k investors loading highest on a component, with their type labels.

    Ties break by investor id so rankings are reproducible. Asking for more
    investors than exist truncates with a warning.
    """
    if not 0 <= component < model.rank:
        raise AnalysisError(f"component must be in [0, {model.rank})")
    if not model.investor_ids:
        raise AnalysisError("model carries no investor index")
    n = len(model.investor_ids)
    if k > n:
        logger.warning("requested top %d of %d investors; truncating", k, n)
        k = n
    values = model.investor_factors[:, component]
    order = sorted(range(n), key=lambda i: (-values[i], model.investor_ids[i]))
    out = []
    for i in order[:k]:
        iid = model.investor_ids[i]
        inv = investors.get(iid) if investors else None
        out.append((iid, float(values[i]), inv.type_label if inv else "unknown"))
    return out


def emerging_component(model: CPModel, split_year: int) -> int:
    """Component whose temporal factor rises most from before to after ``split_year``."""
    years = np.array(model.years)
    early = years < split_year
    late = ~early
    if not early.any() or not late.any():
        raise AnalysisError(f"split year {split_year} leaves an empty side")
    gains = model.temporal_factors[late].mean(axis=0) - model.temporal_factors[early].mean(axis=0)
    return int(np.argmax(gains))
