"""Per-investor, per-year sectoral strategy profiles, one table per stage view.

Each round is split equally across the parent tags of its startup: with k
parent tags, every participating investor books 1/k of a round (and 1/k of
the amount) in each tag. An investor participating in a round counts the
round fully in its own tally, independent of co-investors. Amounts ride
along for reporting but are not used by the geometric analyses.

A dataset is accumulated once into a :class:`SectorActivity`: round and
amount arrays indexed by investor, year, stage slot (all rounds, then one
slot per :class:`StageClass`) and parent sector. Every profile view is a
:class:`ProfileTable` sliced from those arrays: the rounds of one stage
(or of every stage), one row per investor-year, with per-row investor id
and year and stacked per-sector round and amount matrices.
:func:`build_profiles` picks the stage, the years window and the kept
sectors, and :func:`stage_partition` slices the four stage views of the
same accumulation. Group and year selections are row masks over a table,
and :func:`share_matrix` is the one place where round counts become shares.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import AnalysisError
from .ingest import StageClass, ValidatedDataset, classify_stage
from .ontology import SectorOntology

logger = logging.getLogger(__name__)

DEFAULT_YEARS = range(2000, 2018)


@dataclass(frozen=True)
class ProfileOptions:
    """Knobs for profile construction.

    ``exclude_sectors`` names parent tags dropped from the analysis: their
    dimensions disappear (P shrinks). Excluded names absent from the
    ontology are ignored.
    """

    exclude_sectors: frozenset[str] = frozenset({"Health Care"})
    stage_filter: StageClass | None = None
    years: range = DEFAULT_YEARS

    def effective_sectors(self, ontology: SectorOntology) -> tuple[str, ...]:
        return tuple(t for t in ontology.parent_tags if t not in self.exclude_sectors)


def split_round(round_id: str, amount: float, parents) -> list[tuple[str, float, float]]:
    """Equal split of one investor's participation in a round.

    Each of the k parent tags receives ``1 / k`` round weight and
    ``amount / k`` amount weight; an unknown (NaN) amount books none. An
    empty parent set routes the round to the unclassified sink: the caller
    gets ``[]`` and a log record naming ``round_id``.
    """
    parents = sorted(parents)
    if not parents:
        logger.warning("round %s has no classified sectors; excluded", round_id)
        return []
    k = len(parents)
    if math.isnan(amount):
        amount = 0.0
    return [(tag, 1.0 / k, amount / k) for tag in parents]


# slot 0 books every round, slot s only the rounds of stage SLOT_STAGES[s]
SLOT_STAGES = (None, *StageClass)
STAGE_SLOTS = {stage: slot for slot, stage in enumerate(SLOT_STAGES)}
N_SLOTS = len(SLOT_STAGES)


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """Investor-year profiles of one stage view, stacked as rows over one sector order.

    Every row is booked from the rounds of ``stage`` (``None``: from every
    round). Row r is investor ``investor_ids[r]`` in year ``years[r]``;
    ``rounds[r]`` and ``amounts[r]`` hold its round weight and amount per
    sector, columns in ``sectors`` order.
    """

    sectors: tuple[str, ...]
    stage: StageClass | None
    investor_ids: np.ndarray
    years: np.ndarray
    rounds: np.ndarray
    amounts: np.ndarray

    def __len__(self) -> int:
        return len(self.years)

    def take(self, rows) -> "ProfileTable":
        """The rows a boolean mask, an index array or a slice picks, in that order."""
        return ProfileTable(self.sectors, self.stage, self.investor_ids[rows],
                            self.years[rows], self.rounds[rows], self.amounts[rows])


def segment_rows(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated indices ``starts[i], ..., starts[i] + lengths[i] - 1`` over ``i``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if ends.size else 0)


def _flatten(groups, code_of) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start and length of each group within the concatenation, and the concatenated
    ``code_of(item)`` of every item."""
    lengths = np.fromiter(map(len, groups), np.intp, len(groups))
    flat = np.fromiter(map(code_of, chain.from_iterable(groups)), np.intp, int(lengths.sum()))
    return np.cumsum(lengths) - lengths, lengths, flat


@dataclass(frozen=True, eq=False)
class SectorActivity:
    """Every round's split booked once per investor, year, stage slot and sector.

    ``rounds`` and ``amounts`` have shape (investor, year, slot, sector):
    slot 0 books every round and slot ``STAGE_SLOTS[stage]`` only the
    rounds of that stage, so rounds with an unclassifiable label appear in
    slot 0 alone. Sectors follow ``ontology.parent_tags``; investors are
    the ids that occur in the rounds, sorted; ``years`` are the distinct
    round years, ascending.
    """

    ontology: SectorOntology
    investor_ids: tuple[str, ...]
    years: np.ndarray
    rounds: np.ndarray
    amounts: np.ndarray

    @classmethod
    def from_dataset(cls, dataset: ValidatedDataset) -> "SectorActivity":
        """Accumulate ``dataset`` in one pass.

        Each distinct tag set of a funded startup is resolved once and each
        distinct stage label is classified once. Every (round, investor)
        participation books ``1 / k`` round weight and ``amount / k`` amount
        weight in each of the k parent tags of its startup (the arithmetic
        of :func:`split_round`), both computed once per round. One
        ``np.bincount`` books slot 0 and a second, added into the same
        array, the staged slots; a cell gets entries from only one of them,
        each adds its entries in round order, so every cell holds the sum a
        round-by-round loop produces, bit for bit. Each scratch array is
        dropped once used. Rounds whose startup has no classified parent
        are excluded with one log record.
        """
        ontology = dataset.ontology
        rounds, tags, members = dataset.rounds, dataset.startups.tags, dataset.rounds.investors
        sector_index = {tag: i for i, tag in enumerate(ontology.parent_tags)}

        tag_sets, tag_row = np.unique(tags.codes[rounds.startup], return_inverse=True)
        parent_start, n_parents, parent_flat = _flatten(
            [sorted(ontology.resolve(tags.values[c])[0], key=sector_index.__getitem__)
             for c in tag_sets.tolist()], sector_index.__getitem__)

        label_slots = [STAGE_SLOTS.get(classify_stage(label), 0) for label in rounds.stage.values]
        slot = np.array(label_slots, dtype=np.intp)[rounds.stage.codes]
        amount = np.where(np.isnan(rounds.amount), 0.0, rounds.amount)
        investor_ids = tuple(sorted(set(chain.from_iterable(members.values))))
        position = {iid: i for i, iid in enumerate(investor_ids)}
        years, year_row = np.unique(rounds.year, return_inverse=True)

        k = n_parents[tag_row]
        sinks = np.flatnonzero(k == 0)
        if sinks.size:
            logger.warning("%d round(s) have no classified sectors and are excluded: %s",
                           sinks.size, ", ".join(rounds.ids[i] for i in sinks[:10].tolist()))

        # the weights each share of a round books; a round with k = 0 has no shares
        round_share = 1.0 / np.maximum(k, 1)
        amount_share = amount / np.maximum(k, 1)
        del amount

        # one entry per (participation, parent tag), in round order
        member_start, n_members, member_flat = _flatten(members.values, position.__getitem__)
        row_members = n_members[members.codes]
        part_round = np.repeat(np.arange(len(rounds)), row_members)
        part_investor = member_flat[segment_rows(member_start[members.codes], row_members)]
        part_k = k[part_round]
        share_part = np.repeat(np.arange(part_round.size), part_k)
        share_round = part_round[share_part]
        sector = parent_flat[segment_rows(parent_start[tag_row[part_round]], part_k)]

        n_sectors = ontology.n_sectors
        shape = (len(investor_ids), years.size, N_SLOTS, n_sectors)
        cell = ((part_investor[share_part] * years.size + year_row[share_round])
                * N_SLOTS * n_sectors + sector)
        del member_flat, row_members, part_round, part_investor, part_k, share_part, sector
        size = int(np.prod(shape))
        round_w = np.bincount(cell, weights=round_share[share_round], minlength=size)
        amount_w = np.bincount(cell, weights=amount_share[share_round], minlength=size)
        # a staged slot's cell gets entries from this second count alone
        share_slot = slot[share_round]
        staged = share_slot > 0
        cell = cell[staged] + share_slot[staged] * n_sectors
        share_round = share_round[staged]
        del share_slot, staged
        round_w += np.bincount(cell, weights=round_share[share_round], minlength=size)
        amount_w += np.bincount(cell, weights=amount_share[share_round], minlength=size)
        return cls(ontology, investor_ids, years, round_w.reshape(shape),
                   amount_w.reshape(shape))


def build_profiles(activity: SectorActivity,
                   options: ProfileOptions = ProfileOptions()) -> ProfileTable:
    """One row per (investor, year) with any activity, sorted by id then year.

    The rows are sliced from ``activity``, accumulated once by
    :meth:`SectorActivity.from_dataset`. Years outside ``options.years`` are
    skipped, as are rounds whose stage does not match
    ``options.stage_filter`` (when set). Investor-year pairs with no
    surviving activity are simply absent.
    """
    if len(options.years) == 0:
        raise AnalysisError("empty years range")
    in_window = np.array([int(y) in options.years for y in activity.years], dtype=bool)
    slot = STAGE_SLOTS[options.stage_filter]
    sectors = options.effective_sectors(activity.ontology)
    columns = [activity.ontology.index(tag) for tag in sectors]
    rounds = activity.rounds[:, in_window, slot][..., columns]
    amounts = activity.amounts[:, in_window, slot][..., columns]

    active = rounds.sum(axis=-1) > 0
    investor_rows, year_rows = np.nonzero(active)
    return ProfileTable(sectors, options.stage_filter,
                        np.array(activity.investor_ids, dtype=str)[investor_rows],
                        activity.years[in_window][year_rows], rounds[active], amounts[active])


def group_profiles(profiles: ProfileTable, investor_type: str, investors: dict) -> ProfileTable:
    """Rows of ``profiles`` whose investor has type ``investor_type``.

    ``investors`` maps id -> :class:`RawInvestor` (e.g.
    ``dataset.investor_by_id``); a type no investor in it carries is
    rejected.
    """
    members = [iid for iid, inv in investors.items() if inv.type_label == investor_type]
    if not members:
        raise AnalysisError(f"no investor has type {investor_type!r}")
    return profiles.take(np.isin(profiles.investor_ids, members))


def profiles_by_year(profiles: ProfileTable) -> dict[int, ProfileTable]:
    """The rows of each year, years ascending, rows in table order."""
    return {year: profiles.take(profiles.years == year)
            for year in np.unique(profiles.years).tolist()}


def share_matrix(profiles: ProfileTable) -> np.ndarray:
    """The round counts of ``profiles`` as rows of shares summing to 1."""
    if not len(profiles):
        raise AnalysisError("no profiles to stack")
    totals = profiles.rounds.sum(axis=1, keepdims=True)
    if (totals <= 0).any():
        raise AnalysisError("cannot normalize an all-zero strategy vector")
    return profiles.rounds / totals


def stage_partition(activity: SectorActivity,
                    options: ProfileOptions = ProfileOptions()
                    ) -> dict[StageClass, ProfileTable]:
    """Profiles of each stage bucket, sliced from one accumulation."""
    return {
        stage: build_profiles(activity, options=replace(options, stage_filter=stage))
        for stage in StageClass
    }
