"""Per-investor, per-year sectoral strategy vectors.

Each round is split equally across the parent tags of its startup: with k
parent tags, every participating investor books 1/k of a round (and 1/k of
the amount) in each tag. An investor participating in a round counts the
round fully in its own tally, independent of co-investors. Amounts ride
along for reporting but are not used by the geometric analyses.

A dataset is accumulated once into a :class:`SectorActivity`: round and
amount arrays indexed by investor, year, stage slot (all rounds, then one
slot per :class:`StageClass`) and parent sector. Every profile view is a
slice of those arrays: :func:`build_profiles` picks the stage slot, the
years window and the kept sectors, and :func:`stage_partition` slices the
four stage slots of the same accumulation. :func:`share_matrix` is the one
place where round counts become shares, stacked once per profile list.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import AnalysisError
from .ingest import RawRound, StageClass, ValidatedDataset, classify_stage, segment_rows
from .ontology import SectorOntology

logger = logging.getLogger(__name__)

DEFAULT_YEARS = range(2000, 2018)


@dataclass(frozen=True)
class StrategyVector:
    """Sectoral position of one investor in one year.

    ``sectors`` fixes the dimension order; it is shared by every vector
    built from the same ontology and options.
    """

    sectors: tuple[str, ...]
    rounds_by_sector: np.ndarray
    amount_by_sector: np.ndarray

    @property
    def n_rounds(self) -> float:
        return float(self.rounds_by_sector.sum())


@dataclass(frozen=True)
class InvestorYearProfile:
    investor_id: str
    year: int
    stage_filter: StageClass | None
    vector: StrategyVector


@dataclass(frozen=True)
class ProfileOptions:
    """Knobs for profile construction.

    ``exclude_sectors`` names parent tags removed from the analysis; with
    ``exclude_mode="drop"`` the dimensions disappear (P shrinks), with
    ``"zero"`` they stay but are zeroed. Excluded names absent from the
    ontology are ignored. ``strict_stage`` makes unclassifiable stage
    labels an error instead of leaving the round stage-less.
    """

    exclude_sectors: frozenset[str] = frozenset({"Health Care"})
    exclude_mode: str = "drop"
    stage_filter: StageClass | None = None
    years: range = DEFAULT_YEARS
    strict_stage: bool = False

    def __post_init__(self):
        if self.exclude_mode not in ("drop", "zero"):
            raise AnalysisError(f"unknown exclude_mode {self.exclude_mode!r}")

    def effective_sectors(self, ontology: SectorOntology) -> tuple[str, ...]:
        if self.exclude_mode == "drop":
            return tuple(t for t in ontology.parent_tags if t not in self.exclude_sectors)
        return ontology.parent_tags


@dataclass(frozen=True)
class GroupSpec:
    """Selector for a profile subgroup.

    Exactly one of ``investor_type`` and ``stage`` may be set; neither
    means "all". Type selectors and "all" match only stage-unfiltered
    profiles, so mixed profile lists stay unambiguous.
    """

    investor_type: str | None = None
    stage: StageClass | None = None

    def __post_init__(self):
        if self.investor_type is not None and self.stage is not None:
            raise AnalysisError("GroupSpec selects by type or by stage, not both")

    def label(self) -> str:
        if self.investor_type is not None:
            return f"type:{self.investor_type}"
        if self.stage is not None:
            return f"stage:{self.stage.value}"
        return "all"


def split_round(rnd: RawRound, parents, participation: float = 1.0
                ) -> list[tuple[str, float, float]]:
    """Equal split of one investor's participation in a round.

    Each of the k parent tags receives ``participation / k`` round weight
    and ``participation * amount / k`` amount weight. An empty parent set
    routes the round to the unclassified sink: the caller gets ``[]`` and
    a log record.
    """
    parents = sorted(parents)
    if not parents:
        logger.warning("round %s has no classified sectors; excluded", rnd.round_id)
        return []
    k = len(parents)
    amount = rnd.amount_usd or 0.0
    return [(tag, participation / k, participation * amount / k) for tag in parents]


STAGE_SLOTS = {stage: slot for slot, stage in enumerate(StageClass, start=1)}
N_SLOTS = len(STAGE_SLOTS) + 1


@dataclass(frozen=True, eq=False)
class SectorActivity:
    """Every round's split booked once per investor, year, stage slot and sector.

    ``rounds`` and ``amounts`` have shape (investor, year, slot, sector):
    slot 0 books every round and slot ``STAGE_SLOTS[stage]`` only the
    rounds of that stage, so rounds with an unclassifiable label appear in
    slot 0 alone. Sectors follow ``ontology.parent_tags``; investors are
    the ids that occur in the rounds, sorted; ``years`` are the distinct
    round years, ascending. ``unclassified`` lists (year, stage label) of
    each unclassifiable round, for strict-stage checks.
    """

    ontology: SectorOntology
    investor_ids: tuple[str, ...]
    years: np.ndarray
    rounds: np.ndarray
    amounts: np.ndarray
    unclassified: tuple[tuple[int, str], ...]

    @classmethod
    def from_dataset(cls, dataset: ValidatedDataset,
                     ontology: SectorOntology | None = None) -> "SectorActivity":
        """Accumulate ``dataset`` in one pass.

        Each distinct tag set of a funded startup is resolved once and each
        distinct stage label is classified once. Every (round, investor)
        participation books ``1 / k`` round weight and ``amount / k`` amount
        weight in each of the k parent tags of its startup (the arithmetic
        of :func:`split_round`). ``np.bincount`` adds the entries in round
        order, so every cell holds the sum a round-by-round loop produces,
        bit for bit. Rounds whose startup has no classified parent are
        excluded with one log record.
        """
        if ontology is None:
            ontology = dataset.ontology
        rounds, tags = dataset.rounds, dataset.startups.tags
        sector_index = {tag: i for i, tag in enumerate(ontology.parent_tags)}

        tag_sets, tag_row = np.unique(tags.codes[rounds.startup], return_inverse=True)
        parent_lists = [sorted(sector_index[tag] for tag in ontology.resolve(tags.values[c])[0])
                        for c in tag_sets.tolist()]
        n_parents = np.array([len(p) for p in parent_lists], dtype=np.intp)
        parent_start = np.cumsum(n_parents) - n_parents
        parent_flat = np.array([i for p in parent_lists for i in p], dtype=np.intp)

        label_slots = [STAGE_SLOTS.get(classify_stage(label), 0) for label in rounds.stage.values]
        slot = np.array(label_slots, dtype=np.intp)[rounds.stage.codes]
        year = rounds.year
        amount = np.where(np.isnan(rounds.amount), 0.0, rounds.amount)
        investor_ids = rounds.investor_vocab
        years, year_row = np.unique(year, return_inverse=True)
        unclassified = tuple((int(year[i]), rounds.stage[i])
                             for i in np.flatnonzero(slot == 0).tolist())

        k = n_parents[tag_row]
        sinks = np.flatnonzero(k == 0)
        if sinks.size:
            logger.warning("%d round(s) have no classified sectors and are excluded: %s",
                           sinks.size, ", ".join(rounds.ids[i] for i in sinks[:10].tolist()))

        # one entry per (participation, parent tag), in round order
        part_round = np.repeat(np.arange(len(rounds)), np.diff(rounds.investor_offsets))
        part_investor = rounds.investor_codes
        part_k = k[part_round]
        share_part = np.repeat(np.arange(part_round.size), part_k)
        share_round = part_round[share_part]
        sector = parent_flat[segment_rows(parent_start[tag_row[part_round]], part_k)]

        n_sectors = ontology.n_sectors
        shape = (len(investor_ids), years.size, N_SLOTS, n_sectors)
        cell = ((part_investor[share_part] * years.size + year_row[share_round])
                * N_SLOTS * n_sectors + sector)
        share_slot = slot[share_round]
        staged = share_slot > 0
        cell = np.concatenate((cell, cell[staged] + share_slot[staged] * n_sectors))
        share_round = np.concatenate((share_round, share_round[staged]))
        size = int(np.prod(shape))
        round_w = np.bincount(cell, weights=1.0 / k[share_round], minlength=size)
        amount_w = np.bincount(cell, weights=amount[share_round] / k[share_round],
                               minlength=size)
        return cls(ontology, investor_ids, years, round_w.reshape(shape),
                   amount_w.reshape(shape), unclassified)


def _activity(source, ontology: SectorOntology | None) -> SectorActivity:
    if not isinstance(source, SectorActivity):
        return SectorActivity.from_dataset(source, ontology)
    if ontology is not None and ontology != source.ontology:
        raise AnalysisError("the activity was accumulated under another ontology")
    return source


def build_profiles(dataset: ValidatedDataset | SectorActivity,
                   ontology: SectorOntology | None = None,
                   options: ProfileOptions = ProfileOptions()) -> list[InvestorYearProfile]:
    """One profile per (investor, year) with any activity, sorted by id then year.

    ``dataset`` is a dataset, accumulated here, or a :class:`SectorActivity`
    already accumulated from one, which is only sliced. Years outside
    ``options.years`` are skipped, as are rounds whose stage does not match
    ``options.stage_filter`` (when set). Investor-year pairs with no
    surviving activity are simply absent.
    """
    if len(options.years) == 0:
        raise AnalysisError("empty years range")
    activity = _activity(dataset, ontology)
    if options.strict_stage:
        for year, label in activity.unclassified:
            if year in options.years:
                classify_stage(label, strict=True)
    in_window = np.array([int(y) in options.years for y in activity.years], dtype=bool)
    slot = STAGE_SLOTS.get(options.stage_filter, 0)
    sectors = options.effective_sectors(activity.ontology)
    columns = [activity.ontology.index(tag) for tag in sectors]
    rounds = activity.rounds[:, in_window, slot][..., columns]
    amounts = activity.amounts[:, in_window, slot][..., columns]
    if options.exclude_mode == "zero":
        zeroed = [i for i, tag in enumerate(sectors) if tag in options.exclude_sectors]
        rounds[..., zeroed] = 0.0
        amounts[..., zeroed] = 0.0

    active = rounds.sum(axis=-1) > 0
    investor_rows, year_rows = np.nonzero(active)
    years = activity.years[in_window]
    return [
        InvestorYearProfile(
            investor_id=activity.investor_ids[i],
            year=int(years[j]),
            stage_filter=options.stage_filter,
            vector=StrategyVector(sectors, rounds_vec, amount_vec),
        )
        for i, j, rounds_vec, amount_vec in zip(
            investor_rows.tolist(), year_rows.tolist(), rounds[active], amounts[active])
    ]


def group_profiles(profiles, spec: GroupSpec,
                   investors: dict | None = None) -> list[InvestorYearProfile]:
    """Subset of ``profiles`` matching a group selector.

    Type selectors need the ``investors`` id -> :class:`RawInvestor`
    mapping (e.g. ``dataset.investor_by_id``) and reject labels no
    investor in the table carries.
    """
    if spec.stage is not None:
        return [p for p in profiles if p.stage_filter is spec.stage]
    unfiltered = [p for p in profiles if p.stage_filter is None]
    if spec.investor_type is None:
        return unfiltered
    if investors is None:
        raise AnalysisError("type-based grouping needs the investor table")
    known = {inv.type_label for inv in investors.values()}
    if spec.investor_type not in known:
        raise AnalysisError(f"no investor has type {spec.investor_type!r}")
    return [
        p for p in unfiltered
        if p.investor_id in investors and investors[p.investor_id].type_label == spec.investor_type
    ]


def profiles_by_year(profiles) -> dict[int, list[InvestorYearProfile]]:
    out: dict[int, list[InvestorYearProfile]] = {}
    for p in profiles:
        out.setdefault(p.year, []).append(p)
    return dict(sorted(out.items()))


def share_matrix(profiles) -> tuple[np.ndarray, list[tuple[str, int]]]:
    """Stack the round counts of ``profiles`` as rows of shares summing to 1.

    Returns the matrix and the (investor_id, year) row labels in order.
    """
    if not profiles:
        raise AnalysisError("no profiles to stack")
    counts = np.vstack([p.vector.rounds_by_sector for p in profiles])
    totals = counts.sum(axis=1, keepdims=True)
    if (totals <= 0).any():
        raise AnalysisError("cannot normalize an all-zero strategy vector")
    labels = [(p.investor_id, p.year) for p in profiles]
    return counts / totals, labels


def stage_partition(dataset: ValidatedDataset | SectorActivity,
                    ontology: SectorOntology | None = None,
                    options: ProfileOptions = ProfileOptions()
                    ) -> dict[StageClass, list[InvestorYearProfile]]:
    """Profiles of each stage bucket, sliced from one accumulation."""
    activity = _activity(dataset, ontology)
    return {
        stage: build_profiles(activity, options=replace(options, stage_filter=stage))
        for stage in StageClass
    }
