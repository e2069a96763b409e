"""Synthetic ecosystems and tensors with planted ground truth.

Every analysis in this package is verified against data produced here:
planted CP factors for the tensor path, planted drifts, stage offsets,
concentration windows and investor cohorts for the geometric path. The
generators are deterministic per seed, byte for byte, and their output
passes ingest validation with zero warnings.
"""
from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AnalysisError
from .ingest import StageClass
from .ontology import SectorOntology, dump_ontology
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
            seed=self.seed,
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
                       seed: int = 0, weights: np.ndarray | None = None
                       ) -> tuple[np.ndarray, PlantedTruth]:
    """Random rank-R tensor plus i.i.d. Gaussian noise, with its true factors.

    Factor columns are unit-norm standard-normal draws; default weights
    descend from 1 + R/4 down to 1, scaled by sqrt(N S K) so that each
    component contributes O(1) per entry and ``noise`` reads as a
    per-entry sigma.
    """
    if rank > min(n, s * k) or rank < 1:
        raise AnalysisError(f"rank must be in [1, {min(n, s * k)}]")
    if noise < 0:
        raise AnalysisError("noise must be non-negative")
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal((dim, rank)) for dim in (n, s, k)]
    factors = [f / np.linalg.norm(f, axis=0) for f in factors]
    if weights is None:
        weights = np.sqrt(n * s * k) * np.linspace(1.0 + 0.25 * (rank - 1), 1.0, rank)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (rank,):
        raise AnalysisError(f"expected {rank} weights")
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
        object.__setattr__(self, "sector_mixture", mixture)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    years: range
    n_sectors: int
    archetypes: tuple[ArchetypeSpec, ...]
    drift: DriftSpec | None = None
    concentration: ConcentrationSpec | None = None
    noise: float = 0.0
    rounds_per_startup: int = 1
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
            if arch.active_window is not None and not years & set(arch.active_window):
                raise AnalysisError(f"archetype {arch.name!r}: active window outside years")
        if self.concentration is not None:
            span = (self.concentration.start, self.concentration.peak)
            if not all(y in years for y in span):
                raise AnalysisError("concentration window outside years")
        if self.drift is not None and self.drift.turn_year is not None:
            if self.drift.turn_year not in years:
                raise AnalysisError("drift turn year outside years")
        if self.noise < 0:
            raise AnalysisError("noise must be non-negative")
        if self.rounds_per_startup < 1:
            raise AnalysisError("rounds_per_startup must be at least 1")


def mixture_for(config: ScenarioConfig, arch: ArchetypeSpec, stage: StageClass,
                year: int, jitter: np.ndarray | None = None) -> np.ndarray:
    """Effective sector mixture for one archetype, stage and year."""
    m = arch.sector_mixture.copy()
    offset = arch.stage_offsets.get(stage)
    if offset is not None:
        m = m + offset
    if config.drift is not None and arch.follows_drift:
        m = m + config.drift.direction * config.drift.phase(year, config.years[0])
    if jitter is not None:
        m = m + jitter
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


@dataclass(frozen=True)
class EcosystemFiles:
    startups: Path
    rounds: Path
    investors: Path
    ontology: Path
    truth: Path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def generate_ecosystem(config: ScenarioConfig, out_dir
                       ) -> tuple[EcosystemFiles, PlantedTruth]:
    """Realize a scenario as loadable CSV tables plus its truth record.

    One startup is synthesized per round, carrying exactly the drawn
    sector tag, so planted sector labels survive ingestion unchanged.
    Identical config and seed give byte-identical files.
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    sectors = tuple(f"Sector {i:02d}" for i in range(config.n_sectors))
    stage_order = list(StageClass)

    investor_rows = []
    startup_rows = []
    round_rows = []
    archetype_of: dict[str, str] = {}
    cohorts: dict[str, list[str]] = {}

    open_slots: dict[tuple[int, int], list] = {}  # (sector, year) -> [startup_id, rounds left]
    startup_serial = 0

    def startup_for(sector_idx: int, year: int) -> str:
        nonlocal startup_serial
        slot = open_slots.get((sector_idx, year))
        if slot is None or slot[1] == 0:
            startup_id = f"stp_{startup_serial:06d}"
            startup_serial += 1
            startup_rows.append([
                startup_id,
                f"Startup {startup_serial}",
                "USA",
                "active",
                dt.date(year, 1, 2).isoformat(),
                sectors[sector_idx],
            ])
            slot = [startup_id, config.rounds_per_startup]
            open_slots[(sector_idx, year)] = slot
        slot[1] -= 1
        return slot[0]

    serial = 0
    investor_no = 0
    for arch in config.archetypes:
        stage_probs = np.array([arch.stage_weights.get(s, 0.0) for s in stage_order])
        stage_probs = stage_probs / stage_probs.sum()
        for _ in range(arch.count):
            investor_id = f"inv_{investor_no:05d}"
            investor_no += 1
            investor_rows.append([investor_id, f"{arch.name} {investor_no}", arch.type_label])
            archetype_of[investor_id] = arch.name
            cohorts.setdefault(arch.name, []).append(investor_id)
            jitter = (
                config.noise * rng.standard_normal(config.n_sectors)
                if config.noise > 0 else None
            )
            for year in config.years:
                if arch.active_window is not None and year not in arch.active_window:
                    continue
                n_rounds = int(rng.poisson(arch.activity_rate))
                if n_rounds == 0:
                    continue
                stage_counts = rng.multinomial(n_rounds, stage_probs)
                for stage, n_stage in zip(stage_order, stage_counts):
                    if n_stage == 0:
                        continue
                    mixture = mixture_for(config, arch, stage, year, jitter)
                    drawn = rng.choice(config.n_sectors, size=n_stage, p=mixture)
                    months = rng.integers(1, 13, size=n_stage)
                    days = rng.integers(1, 29, size=n_stage)
                    amounts = STAGE_AMOUNT_BASE[stage] * rng.lognormal(
                        0.0, 0.4, size=n_stage
                    )
                    for j in range(n_stage):
                        round_id = f"rnd_{serial:06d}"
                        serial += 1
                        round_rows.append([
                            round_id,
                            startup_for(int(drawn[j]), year),
                            dt.date(year, int(months[j]), int(days[j])).isoformat(),
                            STAGE_LABELS[stage],
                            repr(round(float(amounts[j]), 2)),
                            investor_id,
                        ])

    ontology = SectorOntology(parent_tags=sectors, version=f"synth-{config.name}")
    files = EcosystemFiles(
        startups=out_dir / "startups.csv",
        rounds=out_dir / "rounds.csv",
        investors=out_dir / "investors.csv",
        ontology=out_dir / "ontology.json",
        truth=out_dir / "truth.json",
    )
    _write_csv(files.startups, ["startup_id", "name", "country_code", "status",
                                "founded_date", "tags"], startup_rows)
    _write_csv(files.rounds, ["round_id", "startup_id", "announced_date", "stage_label",
                              "amount_usd", "investor_ids"], round_rows)
    _write_csv(files.investors, ["investor_id", "name", "type_label"], investor_rows)
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
    files.truth.write_text(
        json.dumps(truth.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
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


def baseline_scenario(seed: int = 0, n_investors: int = 30, rate: float = 20.0,
                      n_sectors: int = 10, years: range = range(2006, 2016)
                      ) -> ScenarioConfig:
    """One archetype, uniform mixture, no dynamics: the null ecosystem."""
    uniform = np.full(n_sectors, 1.0 / n_sectors)
    return ScenarioConfig(
        name="baseline",
        years=years,
        n_sectors=n_sectors,
        archetypes=(
            ArchetypeSpec("generalist", "vc", n_investors, uniform, rate),
        ),
        seed=seed,
    )


def convergence_scenario(seed: int = 0, turn_year: int = 2012) -> ScenarioConfig:
    """VCs drift toward the accelerator zone until ``turn_year``, then away."""
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


def concentration_scenario(seed: int = 0, peak_year: int = 2012) -> ScenarioConfig:
    """Strategies sharpen toward the leading sectors up to ``peak_year``, then relax.

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
        concentration=ConcentrationSpec(start=peak_year - 4, peak=peak_year, factor=6.0),
        seed=seed,
    )


def emergence_scenario(seed: int = 0, activation_year: int = 2009) -> ScenarioConfig:
    """An accelerator cohort switches on mid-range in its own sector block."""
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
                          active_window=range(activation_year, years[-1] + 1)),
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
