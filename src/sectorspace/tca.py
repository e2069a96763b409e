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

CP-ALS extrapolates (Bro 1998, as in tensorly's ``parafac(linesearch=True)``):
from sweep 6 on, every even sweep also tries the point ``X0 + sweep**(1/p) *
(X - X0)`` of all three factors, from where the sweep started to where it
ended, and keeps it only if its error is strictly below the sweep's; ``p``
starts at 2 and grows by 1 after 4 rejections in a row. The error history
keeps one entry per ALS sweep and never rises, and sweep counts count ALS
sweeps only.

Each sweep takes its three Gram inverses from the gufunc behind
``np.linalg.inv`` and runs under one ``np.errstate``; a failed LU, which the
gufunc reports as a NaN inverse, is retried once with a ridge.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
# the gufunc np.linalg.inv wraps: a failed LU gives a NaN inverse, not an error
from numpy.linalg._umath_linalg import inv as _lu_inverse
# numpy loads np.random on first use; load it here, with the package, so the
# import never starts mid-run, where a signal handler that uses np.random
# would re-enter it
import numpy.random  # noqa: F401

from .errors import AnalysisError
from .ingest import RawInvestor
from .pca import standardize
from .profiles import ProfileTable

logger = logging.getLogger(__name__)

RIDGE_EPS = 1e-10
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 500
DEFAULT_SIMILARITY_THRESHOLD = 0.8
# extrapolation schedule of cp_als: the first sweep that tries a point, the
# starting root p of the step length sweep**(1/p), and the rejections in a
# row that raise p by 1
EXTRAPOLATE_FROM = 6
EXTRAPOLATE_POWER = 2
EXTRAPOLATE_PATIENCE = 4


@dataclass(frozen=True)
class StrategyTensor:
    """Standardized N x S x K activity tensor with its index maps."""

    values: np.ndarray
    investor_ids: tuple[str, ...]
    sectors: tuple[str, ...]
    years: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape


def build_tensor(profiles: ProfileTable) -> StrategyTensor:
    """Assemble and per-slice standardize the activity tensor of a table.

    The table's round rows are scattered into the tensor in one pass: each
    row lands in its investor's row (investors sorted) and its year's slab
    (the table's years, ascending); the sectors are the table's columns.
    Investors keep the same row in every yearly slice; rows for inactive
    years stay zero until standardization recenters them. Needs at least
    two years and two investors, otherwise the temporal factor (or a fiber
    std) is undefined.
    """
    years, k = np.unique(profiles.years, return_inverse=True)
    if len(years) < 2:
        raise AnalysisError("tensor needs at least 2 years")
    investor_ids, i = np.unique(profiles.investor_ids, return_inverse=True)
    if len(investor_ids) < 2:
        raise AnalysisError("tensor needs at least 2 investors")

    n_sectors = len(profiles.sectors)
    values = np.zeros((len(investor_ids), n_sectors, len(years)))
    np.add.at(values, (i[:, None], np.arange(n_sectors), k[:, None]), profiles.rounds)

    for slab in range(len(years)):
        values[:, :, slab] = standardize(values[:, :, slab])[0]
    return StrategyTensor(
        values=values,
        investor_ids=tuple(investor_ids.tolist()),
        sectors=profiles.sectors,
        years=tuple(years.tolist()),
    )


@dataclass(eq=False, frozen=True)
class CPModel:
    """Canonical rank-R CP decomposition of a strategy tensor."""

    rank: int
    investor_factors: np.ndarray
    sector_factors: np.ndarray
    temporal_factors: np.ndarray
    component_weights: np.ndarray
    investor_ids: tuple[str, ...] = ()
    sectors: tuple[str, ...] = ()
    years: tuple[int, ...] = ()
    error_history: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = False

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


def _solve_factor(m: np.ndarray, gram: np.ndarray, warned: list[bool]) -> np.ndarray:
    """Least-squares update ``factor @ gram = m`` for one factor.

    The N x R right-hand side ``m`` is multiplied by the inverse of the
    R x R Gram from ``_lu_inverse``, which fills the inverse with NaN where
    LU fails; callers run it under ``np.errstate(all="ignore")``. A Gram that
    LU finds singular gets a ridge of ``RIDGE_EPS``, logged once per fit
    (``warned``); one that stays singular after the ridge raises
    ``AnalysisError``.
    """
    inverse = _lu_inverse(gram, signature="d->d")
    if inverse[0, 0] != inverse[0, 0]:
        if not warned[0]:
            logger.warning("rank-deficient ALS subproblem; applying ridge %.0e", RIDGE_EPS)
            warned[0] = True
        inverse = _lu_inverse(gram + RIDGE_EPS * np.eye(gram.shape[0]), signature="d->d")
        if inverse[0, 0] != inverse[0, 0]:
            raise AnalysisError("ALS subproblem stays singular after the ridge")
    return m @ inverse


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
    (the model is then ``converged``) or after ``max_iter`` sweeps. Each
    factor update multiplies its MTTKRP by the inverse of its R x R Gram,
    from the LAPACK gufunc that ``np.linalg.inv`` wraps, with the sweeps
    under one ``np.errstate(all="ignore")``. A failed LU leaves that inverse
    NaN, and the Gram is inverted once more with a ridge of ``1e-10`` (with
    one warning per fit); a Gram still singular aborts the fit. The sector
    and temporal MTTKRPs share one contraction of the tensor with the new
    investor factor (a dimension tree; Phan, Tichavsky & Cichocki 2013). A
    tensor holding non-finite values aborts before the first sweep, and a
    non-finite error aborts the fit.

    From sweep ``EXTRAPOLATE_FROM`` on, every even sweep also tries the
    extrapolated point ``X0 + sweep**(1/p) * (X - X0)`` of all three factors
    (``X0`` before the sweep, ``X`` after it). Its error comes from the same
    Gram identity, and it replaces the sweep's factors only when that error
    is strictly below the sweep's; a non-finite point is rejected.
    ``p`` starts at ``EXTRAPOLATE_POWER`` and grows by 1 after
    ``EXTRAPOLATE_PATIENCE`` rejections in a row. An accepted point's
    investor MTTKRP is the next sweep's right-hand side. ``error_history``
    holds one entry per ALS sweep, the error of the factors kept.
    """
    values = tensor.values if isinstance(tensor, StrategyTensor) else np.asarray(tensor, float)
    n, s, k = values.shape
    if not 1 <= rank <= min(n, s * k):
        raise AnalysisError(f"rank must be in [1, {min(n, s * k)}], got {rank}")
    if tol <= 0:
        raise AnalysisError("tol must be positive")
    if max_iter < 1:
        raise AnalysisError(f"max_iter must be at least 1, got {max_iter}")

    if not np.isfinite(values).all():
        raise AnalysisError("tensor holds non-finite values")
    norm_sq = float(np.sum(values * values))
    if norm_sq == 0.0:
        raise AnalysisError("cannot decompose an all-zero tensor")
    unfold_0 = values.reshape(n, s * k)

    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, rank))
    b = rng.uniform(-1.0, 1.0, size=(s, rank))
    c = rng.uniform(-1.0, 1.0, size=(k, rank))

    warned = [False]
    errors = []
    prev_err_sq = None
    converged = False
    tiny = np.finfo(float).tiny
    power, rejected = EXTRAPOLATE_POWER, 0
    # each Gram is formed once, right after its factor changes
    btb, ctc = b.T @ b, c.T @ c
    m_a = None  # the investor MTTKRP, when an accepted extrapolation formed it
    with np.errstate(all="ignore"):
        for sweep in range(max_iter):
            extrapolate = sweep >= EXTRAPOLATE_FROM and sweep % 2 == 0
            start = a, b, c
            if m_a is None:
                m_a = unfold_0 @ khatri_rao(b, c)
            a = _solve_factor(m_a, btb * ctc, warned)
            m_a = None
            ata = a.T @ a
            # the tensor contracted with the new a, shared by both remaining MTTKRPs
            p = (a.T @ unfold_0).reshape(rank, s, k)
            b = _solve_factor((p @ c.T[:, :, None])[..., 0].T, ata * ctc, warned)
            btb = b.T @ b
            m_c = (b.T[:, None, :] @ p)[:, 0, :].T
            c = _solve_factor(m_c, ata * btb, warned)
            ctc = c.T @ c

            # exact squared residual from Gram identities, no dense reconstruction
            err_sq = norm_sq - 2.0 * (c * m_c).sum() + (ata * btb * ctc).sum()
            if not math.isfinite(err_sq):
                raise AnalysisError("ALS produced a non-finite error")
            err_sq = max(err_sq, 0.0)

            if extrapolate:
                jump = sweep ** (1.0 / power)
                a_t, b_t, c_t = (x0 + jump * (x - x0) for x0, x in zip(start, (a, b, c)))
                m_t = unfold_0 @ khatri_rao(b_t, c_t)
                grams = a_t.T @ a_t, b_t.T @ b_t, c_t.T @ c_t
                t_err_sq = (norm_sq - 2.0 * (a_t * m_t).sum()
                            + (grams[0] * grams[1] * grams[2]).sum())
                if math.isfinite(t_err_sq) and t_err_sq < err_sq:
                    a, b, c, m_a = a_t, b_t, c_t, m_t
                    ata, btb, ctc = grams
                    err_sq = max(t_err_sq, 0.0)
                    rejected = 0
                else:
                    rejected += 1
                    if rejected == EXTRAPOLATE_PATIENCE:
                        power, rejected = power + 1, 0

            errors.append(math.sqrt(err_sq / norm_sq))
            if prev_err_sq is not None:
                if abs(prev_err_sq - err_sq) < tol * max(prev_err_sq, tiny):
                    converged = True
                    break
            prev_err_sq = err_sq

    a, b, c, weights = canonicalize(a, b, c)
    meta = tensor if isinstance(tensor, StrategyTensor) else None
    return CPModel(
        rank=rank,
        investor_factors=a,
        sector_factors=b,
        temporal_factors=c,
        component_weights=weights,
        investor_ids=meta.investor_ids if meta else (),
        sectors=meta.sectors if meta else (),
        years=meta.years if meta else (),
        error_history=np.array(errors),
        converged=converged,
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


def _max_assignment(score: np.ndarray) -> list[int]:
    """Column paired with each row in a maximum-sum matching of a square matrix.

    Kuhn-Munkres in its shortest-augmenting-path form with dual potentials
    (Jonker & Volgenant 1987), O(R^3): each row in turn joins the matching
    along the cheapest path of reduced negated scores. Rows and columns
    count from 1 in the lists; column 0 is a virtual one that holds the row
    being added.
    """
    cost = (-score).tolist()
    size = len(cost)
    u = [0.0] * (size + 1)
    v = [0.0] * (size + 1)
    row_of = [0] * (size + 1)  # 1-based row matched to each column, 0 for none
    via = [0] * (size + 1)  # previous column on the shortest path
    for row in range(1, size + 1):
        row_of[0] = row
        col = 0
        dist = [math.inf] * (size + 1)
        done = [False] * (size + 1)
        while row_of[col]:
            done[col] = True
            i = row_of[col]
            costs = cost[i - 1]
            delta, nearest = math.inf, 0
            for j in range(1, size + 1):
                if not done[j]:
                    reduced = costs[j - 1] - u[i] - v[j]
                    if reduced < dist[j]:
                        dist[j], via[j] = reduced, col
                    if dist[j] < delta:
                        delta, nearest = dist[j], j
            for j in range(size + 1):
                if done[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            col = nearest
        while col:
            row_of[col] = row_of[via[col]]
            col = via[col]
    cols = [0] * size
    for j in range(1, size + 1):
        cols[row_of[j] - 1] = j - 1
    return cols


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
    if not np.isfinite(score).all():
        raise AnalysisError("factor match needs finite factors")
    return float(score[np.arange(model_a.rank), _max_assignment(score)].mean())


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
    restart_sweeps: dict[int, np.ndarray]
    restart_converged: dict[int, np.ndarray]
    best_error: dict[int, float]
    similarity: dict[int, float]
    chosen_rank: int
    best_models: dict[int, CPModel]


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


def rank_scan(tensor: StrategyTensor | np.ndarray, ranks, restarts: int = 5, seed: int = 0,
              tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
              similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD) -> FitDiagnostics:
    """Scan candidate ranks with multi-restart ALS and pick the working rank.

    For each rank the scan keeps every restart's final error (the last
    entry of the fit's Gram-identity error history), sweep count and
    whether its ``tol`` test ended it (a capped fit did not converge), the
    best-restart model and the cross-restart model similarity. The chosen
    rank maximizes the error drop |err(R) - err(R-1)| achieved by stepping
    up to R (the first scanned rank is credited with its drop from the
    empty model, whose relative error is 1), among ranks whose similarity
    stays at or above the threshold: past the true rank the marginal gain
    collapses while restart agreement degrades. ``tensor`` may also be a
    plain N x S x K array; models fitted on one carry no investor, sector
    or year labels.
    """
    ranks = tuple(sorted(ranks))
    if not ranks:
        raise AnalysisError("empty rank range")
    if restarts < 2:
        raise AnalysisError("rank scan needs at least 2 restarts")

    restart_errors: dict[int, np.ndarray] = {}
    restart_sweeps: dict[int, np.ndarray] = {}
    restart_converged: dict[int, np.ndarray] = {}
    best_error: dict[int, float] = {}
    similarity: dict[int, float] = {}
    best_models: dict[int, CPModel] = {}
    for rank in ranks:
        models = [
            cp_als(tensor, rank, seed=_restart_seed(seed, rank, j), tol=tol, max_iter=max_iter)
            for j in range(restarts)
        ]
        errors = np.array([m.error_history[-1] for m in models])
        best = int(np.argmin(errors))
        restart_errors[rank] = errors
        restart_sweeps[rank] = np.array([len(m.error_history) for m in models])
        restart_converged[rank] = np.array([m.converged for m in models])
        best_error[rank] = float(errors[best])
        best_models[rank] = models[best]
        similarity[rank] = model_similarity(models)

    chosen = select_rank(ranks, best_error, similarity, similarity_threshold)
    return FitDiagnostics(
        ranks=ranks,
        restart_errors=restart_errors,
        restart_sweeps=restart_sweeps,
        restart_converged=restart_converged,
        best_error=best_error,
        similarity=similarity,
        chosen_rank=chosen,
        best_models=best_models,
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
