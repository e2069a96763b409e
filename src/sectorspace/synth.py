"""Synthetic ecosystems and tensors with planted ground truth.

Every analysis in this package is verified against data produced here:
planted CP factors for the tensor path, planted drifts, stage offsets,
concentration windows and investor cohorts for the geometric path. The
generators are deterministic per seed, byte for byte, and their output
passes ingest validation with zero warnings.

The bytes of an ecosystem rest on one contract: the order, kind and size
of the calls :func:`generate_ecosystem` makes on its random stream (its
docstring lists them). A sector draw is the one ``Generator.choice``
makes, ``random`` searched in the mixture's CDF, with the mixture checked
and its CDF built once per archetype, stage and year (:func:`mixture_cdf`).
A month and day draw is one ``integers`` call bounded by an array, which
numpy draws element by element, so it takes what a months call and a days
call would (:func:`month_day_draws`). How the draws are then formatted into
tables is free to change (amounts are written from integer cents,
:func:`cents_text`); the test suite checks the files against a
row-at-a-time reference that consumes the same stream through ``choice``
and two ``integers`` calls and formats each amount with ``repr(round(x, 2))``.
"""
from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import AnalysisError
from .ingest import (INVESTOR_COLUMNS, INVESTOR_TYPES, ROUND_COLUMNS, STARTUP_COLUMNS,
                     StageClass)
from .ontology import SectorOntology, dump_ontology
from .reports import _write_atomically, write_rows
from .tca import CPModel, canonicalize

STAGE_LABELS = {
    StageClass.SEED: "seed",
    StageClass.SERIES_A: "series_a",
    StageClass.SERIES_B: "series_b",
    StageClass.SERIES_C_PLUS: "series_c",
}
STAGE_AMOUNT_BASE = {
    StageClass.SEED: 5e5,
    StageClass.SERIES_A: 3e6,
    StageClass.SERIES_B: 1.2e7,
    StageClass.SERIES_C_PLUS: 4e7,
}


# ---------------------------------------------------------------------------
# planted CP tensors


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth emitted alongside synthetic data."""

    kind: str
    seed: int
    cp_weights: np.ndarray | None = None
    cp_factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    archetype_of: dict[str, str] = field(default_factory=dict)
    cohort_ids: tuple[str, ...] = ()
    turn_year: int | None = None
    activation_year: int | None = None
    concentration_window: tuple[int, int] | None = None
    concentration_year: int | None = None
    drift_direction: np.ndarray | None = None
    sectors: tuple[str, ...] = ()
    years: tuple[int, ...] = ()

    def cp_model(self) -> CPModel:
        """Planted factors wrapped as a canonical CP model, for factor matching."""
        if self.cp_factors is None:
            raise AnalysisError("this truth record carries no CP factors")
        a, b, c = self.cp_factors
        return CPModel(
            rank=len(self.cp_weights),
            investor_factors=a,
            sector_factors=b,
            temporal_factors=c,
            component_weights=self.cp_weights,
        )

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "seed": self.seed}
        if self.cp_weights is not None:
            out["cp_weights"] = self.cp_weights.tolist()
            a, b, c = self.cp_factors
            out["cp_factors"] = {
                "investor": a.tolist(), "sector": b.tolist(), "temporal": c.tolist(),
            }
        if self.archetype_of:
            out["archetype_of"] = dict(sorted(self.archetype_of.items()))
        if self.cohort_ids:
            out["cohort_ids"] = list(self.cohort_ids)
        for key in ("turn_year", "activation_year", "concentration_year"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        if self.concentration_window is not None:
            out["concentration_window"] = list(self.concentration_window)
        if self.drift_direction is not None:
            out["drift_direction"] = self.drift_direction.tolist()
        if self.sectors:
            out["sectors"] = list(self.sectors)
        if self.years:
            out["years"] = list(self.years)
        return out


def generate_cp_tensor(n: int, s: int, k: int, rank: int, noise: float = 0.0,
                       seed: int = 0) -> tuple[np.ndarray, PlantedTruth]:
    """Random rank-R tensor plus i.i.d. Gaussian noise, with its true factors.

    Factor columns are unit-norm standard-normal draws; weights descend
    from 1 + R/4 down to 1, scaled by sqrt(N S K) so that each component
    contributes O(1) per entry and ``noise`` reads as a per-entry sigma.
    """
    if rank > min(n, s * k) or rank < 1:
        raise AnalysisError(f"rank must be in [1, {min(n, s * k)}]")
    if noise < 0:
        raise AnalysisError("noise must be non-negative")
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal((dim, rank)) for dim in (n, s, k)]
    factors = [f / np.linalg.norm(f, axis=0) for f in factors]
    weights = np.sqrt(n * s * k) * np.linspace(1.0 + 0.25 * (rank - 1), 1.0, rank)
    a, b, c = factors
    tensor = np.einsum("ir,jr,kr,r->ijk", a, b, c, weights)
    if noise > 0:
        tensor = tensor + noise * rng.standard_normal((n, s, k))
    for i in range(rank):  # store in the same canonical form fitted models use
        a[:, i] *= weights[i]
    a, b, c, weights = canonicalize(a, b, c)
    truth = PlantedTruth(kind="cp_tensor", seed=seed, cp_weights=weights, cp_factors=(a, b, c))
    return tensor, truth


# ---------------------------------------------------------------------------
# planted ecosystems


@dataclass(frozen=True)
class DriftSpec:
    """Linear displacement of sector mixtures over time.

    The offset grows by ``per_year * direction`` each year; with a
    ``turn_year`` it retraces its path afterwards (approach, then recede).
    """

    direction: np.ndarray
    per_year: float
    turn_year: int | None = None

    def phase(self, year: int, first_year: int) -> float:
        steps = year - first_year
        if self.turn_year is not None and year > self.turn_year:
            steps = 2 * (self.turn_year - first_year) - steps
        return self.per_year * steps


@dataclass(frozen=True)
class ConcentrationSpec:
    """Mixture sharpening ramping up over [start, peak] and back down after.

    The exponent applied to mixtures rises linearly from 1 at ``start`` to
    ``factor`` at ``peak``, then falls back at the same rate; strategies
    are most concentrated at the peak year.
    """

    start: int
    peak: int
    factor: float

    def exponent(self, year: int) -> float:
        if self.factor <= 1 or year <= self.start:
            return 1.0
        width = max(self.peak - self.start, 1)
        if year <= self.peak:
            frac = (year - self.start) / width
        else:
            frac = max(1.0 - (year - self.peak) / width, 0.0)
        return 1.0 + (self.factor - 1.0) * frac


@dataclass(frozen=True)
class ArchetypeSpec:
    """A population of investors sharing a strategy recipe."""

    name: str
    type_label: str
    count: int
    sector_mixture: np.ndarray
    activity_rate: float
    active_window: range | None = None
    stage_weights: dict[StageClass, float] = field(
        default_factory=lambda: {StageClass.SEED: 1.0}
    )
    stage_offsets: dict[StageClass, np.ndarray] = field(default_factory=dict)
    follows_drift: bool = True

    def __post_init__(self):
        mixture = np.asarray(self.sector_mixture, dtype=float)
        if mixture.min() < 0 or abs(mixture.sum() - 1.0) > 1e-9:
            raise AnalysisError(f"archetype {self.name!r}: mixture is not a probability vector")
        if self.activity_rate <= 0:
            raise AnalysisError(f"archetype {self.name!r}: activity rate must be positive")
        if self.type_label not in INVESTOR_TYPES:
            raise AnalysisError(f"archetype {self.name!r}: unknown investor type "
                                f"{self.type_label!r}, expected one of {INVESTOR_TYPES}")
        weights = self.stage_weights
        if (not all(isinstance(stage, StageClass) for stage in weights)
                or not all(math.isfinite(w) and w >= 0 for w in weights.values())
                or sum(weights.values()) <= 0):
            raise AnalysisError(f"archetype {self.name!r}: stage weights must map stages "
                                "to finite non-negative weights with a positive sum")
        object.__setattr__(self, "sector_mixture", mixture)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    years: range
    n_sectors: int
    archetypes: tuple[ArchetypeSpec, ...]
    drift: DriftSpec | None = None
    concentration: ConcentrationSpec | None = None
    seed: int = 0

    @property
    def n_investors(self) -> int:
        return sum(a.count for a in self.archetypes)

    def validate(self) -> None:
        years = set(self.years)
        if not years:
            raise AnalysisError("scenario has no years")
        for arch in self.archetypes:
            if arch.sector_mixture.shape != (self.n_sectors,):
                raise AnalysisError(f"archetype {arch.name!r}: mixture has wrong length")
            if any(np.shape(v) != (self.n_sectors,) for v in arch.stage_offsets.values()):
                raise AnalysisError(f"archetype {arch.name!r}: stage offset has wrong length")
            if arch.active_window is not None and not years & set(arch.active_window):
                raise AnalysisError(f"archetype {arch.name!r}: active window outside years")
        if self.concentration is not None:
            span = (self.concentration.start, self.concentration.peak)
            if not all(y in years for y in span):
                raise AnalysisError("concentration window outside years")
        if self.drift is not None:
            if np.shape(self.drift.direction) != (self.n_sectors,):
                raise AnalysisError("drift direction has wrong length")
            if self.drift.turn_year is not None and self.drift.turn_year not in years:
                raise AnalysisError("drift turn year outside years")


def mixture_for(config: ScenarioConfig, arch: ArchetypeSpec, stage: StageClass,
                year: int) -> np.ndarray:
    """Effective sector mixture for one archetype, stage and year."""
    m = arch.sector_mixture.copy()
    offset = arch.stage_offsets.get(stage)
    if offset is not None:
        m = m + offset
    if config.drift is not None and arch.follows_drift:
        m = m + config.drift.direction * config.drift.phase(year, config.years[0])
    m = np.clip(m, 0.0, None)
    total = m.sum()
    if total <= 0:
        raise AnalysisError(f"archetype {arch.name!r}: mixture collapsed to zero in {year}")
    m = m / total
    if config.concentration is not None:
        exponent = config.concentration.exponent(year)
        if exponent != 1.0:
            m = m**exponent
            m = m / m.sum()
    return m


# the tolerance Generator.choice allows on the sum of ``p``
CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def mixture_cdf(mixture: np.ndarray) -> np.ndarray:
    """The normalized CDF that ``Generator.choice`` builds from ``p=mixture``.

    ``mixture`` is checked as ``choice`` checks ``p``: no negative entry
    and a sum of 1 within ``CHOICE_ATOL``. Then
    ``cdf.searchsorted(rng.random(n), side="right")`` takes the same doubles
    from ``rng`` and gives the same indices as
    ``rng.choice(len(mixture), n, p=mixture)``, without checking ``p`` again
    on every call.
    """
    if not ((mixture >= 0).all() and abs(math.fsum(mixture) - 1.0) <= CHOICE_ATOL):
        raise AnalysisError("sector mixture is not a probability vector")
    cdf = mixture.cumsum()
    cdf /= cdf[-1]
    return cdf


# exclusive upper bounds of a month and of a (synthetic, 28-day) day
MONTH_DAY_HIGH = np.array([13, 29])


def month_day_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """Months (row 0) and days (row 1) of ``n`` rounds in one bounded draw.

    numpy draws each element of an array-bounded ``integers`` on its own
    (Lemire's method on the generator's 32-bit stream), so this gives the
    values, dtype and stream position of ``rng.integers(1, 13, size=n)``
    followed by ``rng.integers(1, 29, size=n)``, in one call instead of two.
    """
    return rng.integers(1, np.repeat(MONTH_DAY_HIGH, n)).reshape(2, n)


# the text of each hundredths count as repr ends a float: "0" for 0, "5" for 50, "05" for 5
HUNDREDTHS = np.array([f"{h // 10}" if h % 10 == 0 else f"{h:02d}" for h in range(100)],
                      dtype=object)


def cents_text(values: np.ndarray) -> list[str]:
    """``repr(round(x, 2))`` of each float in ``values``, formatted from integer cents.

    ``round(x, 2)`` rounds the exact binary value of ``x`` to hundredths,
    half to even, and parses that decimal back; a decimal of at most 15
    significant digits round-trips, so ``repr`` prints it with trailing
    zeros stripped. ``rint(x * 100)`` is that count of hundredths wherever
    the product's rounding error, at most half a spacing, cannot cross a
    half-integer: for ``+0.0`` and positive ``x`` whose ``x * 100`` is below
    1e15 and more than two spacings from the nearest half-integer. Every
    other value (negative, ``-0.0``, non-finite, too large or a near-tie)
    goes through ``repr(round(x, 2))``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cents = values * 100
        exact = (~np.signbit(values) & (cents < 1e15)
                 & (np.abs(cents - np.floor(cents) - 0.5) > 2 * np.spacing(cents)))
    whole, hundredths = np.divmod(np.rint(np.where(exact, cents, 0.0)).astype(np.int64), 100)
    text = [f"{w}.{h}" for w, h in zip(whole.tolist(), HUNDREDTHS[hundredths].tolist())]
    for i in np.flatnonzero(~exact).tolist():
        text[i] = repr(round(float(values[i]), 2))
    return text


@dataclass(frozen=True)
class EcosystemFiles:
    startups: Path
    rounds: Path
    investors: Path
    ontology: Path
    truth: Path


def generate_ecosystem(config: ScenarioConfig, out_dir
                       ) -> tuple[EcosystemFiles, PlantedTruth]:
    """Realize a scenario as loadable CSV tables plus its truth record.

    One startup is synthesized per round, carrying exactly the drawn
    sector tag, so planted sector labels survive ingestion unchanged.
    Identical config and seed give byte-identical files.

    Draw order: one ``default_rng(config.seed)`` stream, consumed per
    archetype, investor, year (inside the active window) and stage in
    ``StageClass`` order as ``poisson`` (rounds that year), ``multinomial``
    (split over stages), then for each stage with rounds ``random``
    (sectors, searched in the mixture's CDF: the draw ``choice`` makes),
    one ``integers`` bounded by ``[13] * n + [29] * n`` (months, then days:
    the draws of an ``integers(1, 13)`` and an ``integers(1, 29)`` call)
    and ``lognormal`` (amounts), each sized to that stage's ``n`` rounds.
    Rounds are numbered in the same order. The tables are formatted from
    the concatenated draws after the loop, so only these calls decide the
    bytes.
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    sectors = tuple(f"Sector {i:02d}" for i in range(config.n_sectors))
    stage_order = list(StageClass)

    investor_rows = []
    archetype_of: dict[str, str] = {}
    cohorts: dict[str, list[str]] = {}
    # one cell per investor, year and stage with rounds:
    # (investor number, year's position in config.years, stage number, rounds),
    # and the cell's draws
    cells: list[tuple[int, int, int, int]] = []
    drawn, dates, amounts = [], [], []

    for arch in config.archetypes:
        stage_probs = np.array([arch.stage_weights.get(s, 0.0) for s in stage_order])
        stage_probs = stage_probs / stage_probs.sum()
        active_years = [(year_no, y) for year_no, y in enumerate(config.years)
                        if arch.active_window is None or y in arch.active_window]
        cdfs: dict[tuple[int, int], np.ndarray] = {}
        for _ in range(arch.count):
            investor_no = len(investor_rows)
            investor_id = f"inv_{investor_no:05d}"
            investor_rows.append([investor_id, f"{arch.name} {investor_no + 1}", arch.type_label])
            archetype_of[investor_id] = arch.name
            cohorts.setdefault(arch.name, []).append(investor_id)
            for year_no, year in active_years:
                n_rounds = int(rng.poisson(arch.activity_rate))
                if n_rounds == 0:
                    continue
                stage_counts = rng.multinomial(n_rounds, stage_probs)
                for stage_no, n_stage in enumerate(stage_counts.tolist()):
                    if n_stage == 0:
                        continue
                    cdf = cdfs.get((stage_no, year_no))
                    if cdf is None:
                        cdf = cdfs[stage_no, year_no] = mixture_cdf(
                            mixture_for(config, arch, stage_order[stage_no], year))
                    drawn.append(cdf.searchsorted(rng.random(n_stage), side="right"))
                    dates.append(month_day_draws(rng, n_stage))
                    amounts.append(rng.lognormal(0.0, 0.4, size=n_stage))
                    cells.append((investor_no, year_no, stage_no, n_stage))

    def joined(parts, empty=(0,)):
        return np.concatenate(parts or [np.zeros(empty, dtype=np.int64)], axis=-1)

    def taken(values, index):
        return np.array(values, dtype=object)[index].tolist()

    cell_table = np.array(cells, dtype=np.int64).reshape(-1, 4)
    investor_nos, year_nos, stage_nos = np.repeat(
        cell_table[:, :3], cell_table[:, 3], axis=0).T
    n = len(year_nos)
    months, days = joined(dates, (2, 0))
    stage_base = np.array([STAGE_AMOUNT_BASE[stage] for stage in stage_order])
    founded = [dt.date(y, 1, 2).isoformat() for y in config.years]
    announced = [dt.date(y, m, d).isoformat()
                 for y in config.years for m in range(1, 13) for d in range(1, 29)]
    digits = ["%06d" % i for i in range(n)]
    startup_ids = list(map("stp_".__add__, digits))
    startup_rows = zip(
        startup_ids, [f"Startup {i}" for i in range(1, n + 1)], repeat("USA"),
        repeat("active"), taken(founded, year_nos), taken(sectors, joined(drawn)))
    round_rows = zip(
        map("rnd_".__add__, digits), startup_ids,
        taken(announced, (year_nos * 12 + months - 1) * 28 + days - 1),
        taken([STAGE_LABELS[stage] for stage in stage_order], stage_nos),
        cents_text(stage_base[stage_nos] * joined(amounts)),
        taken([row[0] for row in investor_rows], investor_nos))

    ontology = SectorOntology(parent_tags=sectors, version=f"synth-{config.name}")
    files = EcosystemFiles(
        startups=out_dir / "startups.csv",
        rounds=out_dir / "rounds.csv",
        investors=out_dir / "investors.csv",
        ontology=out_dir / "ontology.json",
        truth=out_dir / "truth.json",
    )
    write_rows(files.startups, STARTUP_COLUMNS, startup_rows)
    write_rows(files.rounds, ROUND_COLUMNS, round_rows)
    write_rows(files.investors, INVESTOR_COLUMNS, investor_rows)
    dump_ontology(ontology, files.ontology)

    special = next(
        (a.name for a in config.archetypes if a.type_label == "accelerator"), None
    )
    truth = PlantedTruth(
        kind=config.name,
        seed=config.seed,
        archetype_of=archetype_of,
        cohort_ids=tuple(cohorts.get(special, ())) if special else (),
        turn_year=config.drift.turn_year if config.drift else None,
        activation_year=min(
            (a.active_window[0] for a in config.archetypes if a.active_window is not None),
            default=None,
        ),
        concentration_window=(
            (config.concentration.start, config.concentration.peak)
            if config.concentration else None
        ),
        concentration_year=config.concentration.peak if config.concentration else None,
        drift_direction=config.drift.direction if config.drift else None,
        sectors=sectors,
        years=tuple(config.years),
    )
    text = json.dumps(truth.to_json(), indent=2, sort_keys=True) + "\n"
    _write_atomically(files.truth, lambda handle: handle.write(text))
    return files, truth


# ---------------------------------------------------------------------------
# canned scenarios


def _block_mixture(n_sectors: int, block, mass: float = 1.0) -> np.ndarray:
    m = np.zeros(n_sectors)
    m[list(block)] = mass / len(block)
    if mass < 1.0:
        rest = [i for i in range(n_sectors) if i not in set(block)]
        m[rest] = (1.0 - mass) / len(rest)
    return m


def baseline_scenario(seed: int = 0, n_investors: int = 30, rate: float = 20.0
                      ) -> ScenarioConfig:
    """One archetype over 10 sectors and 2006-2015, uniform mixture, no
    dynamics: the null ecosystem."""
    n_sectors = 10
    uniform = np.full(n_sectors, 1.0 / n_sectors)
    return ScenarioConfig(
        name="baseline",
        years=range(2006, 2016),
        n_sectors=n_sectors,
        archetypes=(
            ArchetypeSpec("generalist", "vc", n_investors, uniform, rate),
        ),
        seed=seed,
    )


def convergence_scenario(seed: int = 0) -> ScenarioConfig:
    """VCs drift toward the accelerator zone until the turn year, 2012, then away."""
    turn_year = 2012
    n_sectors = 12
    years = range(2004, 2018)
    m_acc = _block_mixture(n_sectors, range(8, 12), mass=0.9)
    m_vc = _block_mixture(n_sectors, range(0, 4), mass=0.9)
    direction = m_acc - m_vc
    return ScenarioConfig(
        name="convergence",
        years=years,
        n_sectors=n_sectors,
        archetypes=(
            ArchetypeSpec("fund", "vc", 50, m_vc, 12.0),
            ArchetypeSpec("program", "accelerator", 15, m_acc, 25.0,
                          follows_drift=False),
        ),
        drift=DriftSpec(
            direction=direction,
            per_year=1.0 / (turn_year - years[0]),
            turn_year=turn_year,
        ),
        seed=seed,
    )


def stage_offsets_scenario(seed: int = 0) -> ScenarioConfig:
    """Later funding stages sit progressively farther from the accelerator zone."""
    n_sectors = 12
    years = range(2008, 2016)
    m_acc = _block_mixture(n_sectors, range(0, 4), mass=0.9)
    away = _block_mixture(n_sectors, range(8, 12)) - _block_mixture(n_sectors, range(0, 4))
    offsets = {
        StageClass.SEED: 0.10 * away,
        StageClass.SERIES_A: 0.28 * away,
        StageClass.SERIES_B: 0.46 * away,
        StageClass.SERIES_C_PLUS: 0.64 * away,
    }
    return ScenarioConfig(
        name="stage_offsets",
        years=years,
        n_sectors=n_sectors,
        archetypes=(
            ArchetypeSpec(
                "market", "vc", 60, m_acc, 10.0,
                stage_weights={s: 0.25 for s in StageClass},
                stage_offsets=offsets,
            ),
            ArchetypeSpec("program", "accelerator", 15, m_acc, 25.0),
        ),
        seed=seed,
    )


def concentration_scenario(seed: int = 0) -> ScenarioConfig:
    """Strategies sharpen toward the leading sectors from 2008 up to the peak
    year, 2012, then relax.

    The base mixture decays geometrically across sectors, so raising it to
    the tightening exponent genuinely concentrates mass on the top sectors
    (a flat mixture would be a fixed point of sharpening).
    """
    n_sectors = 10
    years = range(2005, 2018)
    base = 0.75 ** np.arange(n_sectors)
    base = base / base.sum()
    return ScenarioConfig(
        name="concentration",
        years=years,
        n_sectors=n_sectors,
        archetypes=(
            ArchetypeSpec("crowd", "vc", 100, base, 12.0),
        ),
        concentration=ConcentrationSpec(start=2008, peak=2012, factor=6.0),
        seed=seed,
    )


def emergence_scenario(seed: int = 0) -> ScenarioConfig:
    """An accelerator cohort switches on in 2009, mid-range, in its own sector block."""
    n_sectors = 12
    years = range(2002, 2018)
    background = _block_mixture(n_sectors, range(0, 8), mass=0.96)
    cohort = _block_mixture(n_sectors, range(8, 12), mass=0.95)
    return ScenarioConfig(
        name="emergence",
        years=years,
        n_sectors=n_sectors,
        archetypes=(
            ArchetypeSpec("oldguard", "vc", 50, background, 4.0),
            ArchetypeSpec("cohort", "accelerator", 12, cohort, 25.0,
                          active_window=range(2009, years[-1] + 1)),
        ),
        seed=seed,
    )


SCENARIOS = {
    "baseline": baseline_scenario,
    "convergence": convergence_scenario,
    "stage_offsets": stage_offsets_scenario,
    "concentration": concentration_scenario,
    "emergence": emergence_scenario,
}
