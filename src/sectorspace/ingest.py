"""Loading, validation and filtering of the raw funding tables.

File formats (UTF-8 CSV with header row, RFC-4180 quoting):

* ``startups.csv``  -- startup_id,name,country_code,status,founded_date,tags
  (``tags`` pipe-delimited)
* ``rounds.csv``    -- round_id,startup_id,announced_date,stage_label,amount_usd,investor_ids
  (``investor_ids`` pipe-delimited, ``amount_usd`` may be empty = unknown)
* ``investors.csv`` -- investor_id,name,type_label

The startup and round tables are held as columns. Each CSV is read once
into one list of cells per column, and each distinct cell value is
converted once: statuses, dates, tag sets and stage labels become
:class:`Categorical` columns (codes into the distinct values), amounts a
float array (NaN = unknown), the startup of each round a row index into
the startup table, and the investors of each round CSR offsets plus codes
into the sorted ids that occur in the rounds. :class:`StartupTable` and
:class:`RoundTable` are read-only sequences of :class:`RawStartup` and
:class:`RawRound` records, built only when a row is indexed or iterated;
filtering and accumulation read the columns. The investor table stays a
tuple of records.

The loaded dataset is immutable by convention and safe to share across
concurrent readers.
"""
from __future__ import annotations

import csv
import datetime as dt
import enum
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .errors import IntegrityError, SchemaError, StageError
from .ontology import SectorOntology, default_ontology, dump_ontology, load_ontology, resolve_parents

__all__ = [
    "StartupStatus",
    "StageClass",
    "RawStartup",
    "RawRound",
    "RawInvestor",
    "Categorical",
    "StartupTable",
    "RoundTable",
    "ValidatedDataset",
    "classify_stage",
    "load_dataset",
    "dump_dataset",
    "filter_startups",
    "validate_dataset",
    "resolve_parents",
]

STARTUP_COLUMNS = ["startup_id", "name", "country_code", "status", "founded_date", "tags"]
ROUND_COLUMNS = ["round_id", "startup_id", "announced_date", "stage_label", "amount_usd", "investor_ids"]
INVESTOR_COLUMNS = ["investor_id", "name", "type_label"]

INVESTOR_TYPES = ("accelerator", "micro_vc", "vc", "corporate_vc", "angel", "other")

DEFAULT_FOUNDED_CUTOFF = dt.date(2000, 1, 1)
DEFAULT_COUNTRY = "USA"


class StartupStatus(enum.Enum):
    ACTIVE = "active"
    CLOSED = "closed"
    ACQUIRED = "acquired"
    IPO = "ipo"


class StageClass(enum.Enum):
    """Funding stage buckets; Series C and every later letter round collapse into one."""

    SEED = "seed"
    SERIES_A = "series_a"
    SERIES_B = "series_b"
    SERIES_C_PLUS = "series_c_plus"


@dataclass(frozen=True)
class RawStartup:
    startup_id: str
    name: str
    country_code: str
    status: StartupStatus
    founded_date: dt.date
    tags: tuple[str, ...]


@dataclass(frozen=True)
class RawRound:
    round_id: str
    startup_id: str
    announced_date: dt.date
    stage_label: str
    amount_usd: float | None
    investor_ids: tuple[str, ...]


@dataclass(frozen=True)
class RawInvestor:
    investor_id: str
    name: str
    type_label: str


@dataclass(frozen=True, eq=False)
class Categorical:
    """A column stored as codes into its distinct values.

    Row ``i`` holds ``values[codes[i]]``; every value is used by some row.
    """

    codes: np.ndarray
    values: tuple

    @classmethod
    def encode(cls, cells, convert=None) -> "Categorical":
        """Encode ``cells``, running ``convert`` once per distinct cell.

        Cells whose converted values are equal share one code; values are
        numbered in order of first appearance.
        """
        code_of = dict.fromkeys(cells)
        values: dict = {}
        for cell in code_of:
            value = cell if convert is None else convert(cell)
            code_of[cell] = values.setdefault(value, len(values))
        codes = np.fromiter(map(code_of.__getitem__, cells), np.intp, len(cells))
        return cls(codes, tuple(values))

    def __getitem__(self, row: int):
        return self.values[self.codes[row]]

    def rows_where(self, predicate) -> np.ndarray:
        """Mask of the rows whose value satisfies ``predicate`` (called once per value)."""
        return np.array([bool(predicate(v)) for v in self.values], dtype=bool)[self.codes]

    def take(self, rows: np.ndarray) -> "Categorical":
        """The given rows, keeping only the values they use."""
        codes = self.codes[rows]
        used = np.bincount(codes, minlength=len(self.values)) > 0
        return Categorical((np.cumsum(used) - 1)[codes], tuple(compress(self.values, used)))


def segment_rows(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated indices ``starts[i], ..., starts[i] + lengths[i] - 1`` over ``i``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if ends.size else 0)


class _Table(Sequence):
    """Read-only sequence of records built from columns on access."""

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        rows = range(len(self))
        if isinstance(index, slice):
            return tuple(map(self._record, rows[index]))
        return self._record(rows[index])

    def __iter__(self):
        return map(self._record, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None


@dataclass(frozen=True, eq=False)
class StartupTable(_Table):
    """The startups as columns, one entry per row."""

    ids: tuple[str, ...]
    names: tuple[str, ...]
    country: Categorical
    status: Categorical
    founded: Categorical
    tags: Categorical

    @classmethod
    def from_records(cls, records) -> "StartupTable":
        records = tuple(records)
        return cls(
            ids=tuple(s.startup_id for s in records),
            names=tuple(s.name for s in records),
            country=Categorical.encode([s.country_code for s in records]),
            status=Categorical.encode([s.status for s in records]),
            founded=Categorical.encode([s.founded_date for s in records]),
            tags=Categorical.encode([s.tags for s in records]),
        )

    def _record(self, row: int) -> RawStartup:
        return RawStartup(self.ids[row], self.names[row], self.country[row],
                          self.status[row], self.founded[row], self.tags[row])

    def take(self, rows: np.ndarray) -> "StartupTable":
        picked = rows.tolist()
        return StartupTable(
            ids=tuple(map(self.ids.__getitem__, picked)),
            names=tuple(map(self.names.__getitem__, picked)),
            country=self.country.take(rows),
            status=self.status.take(rows),
            founded=self.founded.take(rows),
            tags=self.tags.take(rows),
        )


@dataclass(frozen=True, eq=False)
class RoundTable(_Table):
    """The rounds as columns, one entry per row.

    ``startup`` holds each round's row in the startup table whose ids are
    ``startup_ids``; ``amount`` is NaN where unknown. The investors of round
    ``i`` are ``investor_vocab[c]`` for ``c`` in
    ``investor_codes[investor_offsets[i]:investor_offsets[i + 1]]``; the
    vocabulary is the sorted ids that occur in the rounds.
    """

    ids: tuple[str, ...]
    startup: np.ndarray
    startup_ids: tuple[str, ...]
    announced: Categorical
    stage: Categorical
    amount: np.ndarray
    investor_offsets: np.ndarray
    investor_codes: np.ndarray
    investor_vocab: tuple[str, ...]

    @classmethod
    def from_columns(cls, ids, startup, startup_ids, announced: Categorical,
                     stage: Categorical, amount, members: Categorical) -> "RoundTable":
        """Build the table; ``members`` holds each round's investor id tuple."""
        vocab = tuple(sorted({iid for ids_ in members.values for iid in ids_}))
        position = {iid: code for code, iid in enumerate(vocab)}
        lengths = np.array([len(ids_) for ids_ in members.values], dtype=np.intp)
        flat = np.fromiter((position[iid] for ids_ in members.values for iid in ids_),
                           np.intp, int(lengths.sum()))
        row_lengths = lengths[members.codes]
        offsets = np.concatenate(([0], np.cumsum(row_lengths))).astype(np.intp)
        codes = flat[segment_rows((np.cumsum(lengths) - lengths)[members.codes], row_lengths)]
        return cls(tuple(ids), np.asarray(startup, dtype=np.intp), startup_ids, announced,
                   stage, np.asarray(amount, dtype=float), offsets, codes, vocab)

    @classmethod
    def from_records(cls, records, startup_ids: tuple[str, ...]) -> "RoundTable":
        records = tuple(records)
        row_of = {sid: row for row, sid in enumerate(startup_ids)}
        dangling = [f"round {r.round_id!r} -> startup {r.startup_id!r}"
                    for r in records if r.startup_id not in row_of]
        if dangling:
            raise IntegrityError("dangling foreign keys: " + "; ".join(dangling))
        return cls.from_columns(
            [r.round_id for r in records],
            [row_of[r.startup_id] for r in records],
            startup_ids,
            Categorical.encode([r.announced_date for r in records]),
            Categorical.encode([r.stage_label for r in records]),
            [math.nan if r.amount_usd is None else r.amount_usd for r in records],
            Categorical.encode([tuple(r.investor_ids) for r in records]),
        )

    @cached_property
    def year(self) -> np.ndarray:
        return np.array([d.year for d in self.announced.values], dtype=np.intp)[
            self.announced.codes]

    def _record(self, row: int) -> RawRound:
        amount = float(self.amount[row])
        lo, hi = self.investor_offsets[row], self.investor_offsets[row + 1]
        return RawRound(
            self.ids[row], self.startup_ids[self.startup[row]], self.announced[row],
            self.stage[row], None if math.isnan(amount) else amount,
            tuple(map(self.investor_vocab.__getitem__, self.investor_codes[lo:hi].tolist())),
        )

    def take(self, rows: np.ndarray, startup_ids: tuple[str, ...],
             startup_row: np.ndarray) -> "RoundTable":
        """The given rows, pointing into a new startup table.

        ``startup_row`` maps each row of the current startup table to its row
        in the one whose ids are ``startup_ids``.
        """
        lengths = np.diff(self.investor_offsets)[rows]
        codes = self.investor_codes[segment_rows(self.investor_offsets[rows], lengths)]
        used = np.bincount(codes, minlength=len(self.investor_vocab)) > 0
        return RoundTable(
            ids=tuple(map(self.ids.__getitem__, rows.tolist())),
            startup=startup_row[self.startup[rows]],
            startup_ids=startup_ids,
            announced=self.announced.take(rows),
            stage=self.stage.take(rows),
            amount=self.amount[rows],
            investor_offsets=np.concatenate(([0], np.cumsum(lengths))).astype(np.intp),
            investor_codes=(np.cumsum(used) - 1)[codes],
            investor_vocab=tuple(compress(self.investor_vocab, used)),
        )


@dataclass
class ValidatedDataset:
    """All four tables, parsed and referentially consistent.

    ``startups`` and ``rounds`` may be given as records; they are stored as
    a :class:`StartupTable` and a :class:`RoundTable`.
    """

    startups: StartupTable
    rounds: RoundTable
    investors: tuple[RawInvestor, ...]
    ontology: SectorOntology

    def __post_init__(self):
        if not isinstance(self.startups, StartupTable):
            self.startups = StartupTable.from_records(self.startups)
        if not isinstance(self.rounds, RoundTable):
            self.rounds = RoundTable.from_records(self.rounds, self.startups.ids)

    @cached_property
    def startup_by_id(self) -> dict[str, RawStartup]:
        return {s.startup_id: s for s in self.startups}

    @cached_property
    def investor_by_id(self) -> dict[str, RawInvestor]:
        return {i.investor_id: i for i in self.investors}

    @property
    def counts(self) -> dict[str, int]:
        return {
            "startups": len(self.startups),
            "rounds": len(self.rounds),
            "investors": len(self.investors),
            "sectors": self.ontology.n_sectors,
        }


_SEPARATORS = re.compile(r"[\s_\-./]+")
_SERIES = re.compile(r"^series ([a-z])$")


def classify_stage(stage_label: str, strict: bool = False,
                   default: StageClass | None = None) -> StageClass | None:
    """Classify a free-form stage label into one of the four stage buckets.

    Case and punctuation are normalized first, so "Series-A", "series_a"
    and "SERIES A" agree. Any single-letter series from C onward lands in
    ``SERIES_C_PLUS``. Unknown labels raise in strict mode and otherwise
    fall back to ``default`` (``None`` = unclassified).
    """
    norm = _SEPARATORS.sub(" ", stage_label.strip().lower()).strip()
    if norm == "seed":
        return StageClass.SEED
    match = _SERIES.match(norm)
    if match:
        letter = match.group(1)
        if letter == "a":
            return StageClass.SERIES_A
        if letter == "b":
            return StageClass.SERIES_B
        return StageClass.SERIES_C_PLUS
    if strict:
        raise StageError(f"unknown stage label {stage_label!r}")
    return default


# Cell converters return None for a cell the schema rejects.

def _parse_status(text: str) -> StartupStatus | None:
    try:
        return StartupStatus(text.strip().lower())
    except ValueError:
        return None


def _parse_date(text: str) -> dt.date | None:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        return None


def _parse_amount(text: str) -> float | None:
    """Amount in USD, NaN for an empty cell (unknown); non-finite values are rejected."""
    text = text.strip()
    if not text:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _split_list(text: str) -> tuple[str, ...]:
    return tuple(part for part in (p.strip() for p in text.split("|")) if part)


def _repeated(items) -> str | None:
    """The first item that occurs earlier in ``items``, or None."""
    if len(set(items)) == len(items):
        return None
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)


def _first(mask: np.ndarray) -> int | None:
    return int(mask.argmax()) if mask.any() else None


def _first_repeat(ids: list[str]) -> int | None:
    item = _repeated(ids)
    return None if item is None else ids.index(item, ids.index(item) + 1)


def _find(items: list, item) -> int | None:
    return items.index(item) if item in items else None


def _read_columns(path, columns: list[str]) -> tuple[list[list[str]], int | None]:
    """Read the cells of ``columns`` into one list per column.

    Blank lines are skipped and not numbered, so data row ``i`` (from 0) is
    row ``i + 2`` of the file. Reading stops at the first row too short to
    hold every column; its index is returned (``None`` if there is none),
    so that a bad row before it is reported first.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        position = {name: i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in position]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        cells: list[list[str]] = [[] for _ in columns]
        picks = [(column.append, position[name]) for column, name in zip(cells, columns)]
        width = max(i for _, i in picks) + 1
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                return cells, len(cells[0])
            for append, i in picks:
                append(row[i])
    return cells, None


def _check(path, short_row: int | None, *faults) -> None:
    """Raise the fault of the earliest bad row.

    ``faults`` are ``(row, describe)`` pairs in the order a row is checked,
    ``row`` being the first row failing that check (or None) and
    ``describe(row)`` the message; a short row comes after every row read.
    """
    found = [(row, describe) for row, describe in faults if row is not None]
    if found:
        row, describe = min(found, key=lambda fault: fault[0])
        raise SchemaError(f"{path}:{row + 2}: {describe(row)}")
    if short_row is not None:
        raise SchemaError(f"{Path(path)}:{short_row + 2}: short row")


def _load_startups(path) -> StartupTable:
    (ids, names, countries, statuses, founded, tags), short_row = _read_columns(
        path, STARTUP_COLUMNS)
    ids = list(map(str.strip, ids))
    status = Categorical.encode(statuses, _parse_status)
    founded_on = Categorical.encode(founded, _parse_date)
    _check(
        path, short_row,
        (_find(ids, ""), lambda _: "empty startup_id"),
        (_first_repeat(ids), lambda i: f"duplicate startup_id {ids[i]!r}"),
        (_first(status.rows_where(lambda v: v is None)),
         lambda i: f"unknown status {statuses[i]!r}"),
        (_first(founded_on.rows_where(lambda v: v is None)),
         lambda i: f"unparsable date {founded[i]!r}"),
    )
    return StartupTable(
        ids=tuple(ids),
        names=tuple(names),
        country=Categorical.encode(countries, str.strip),
        status=status,
        founded=founded_on,
        tags=Categorical.encode(tags, _split_list),
    )


def _load_investors(path) -> tuple[RawInvestor, ...]:
    (ids, names, types), short_row = _read_columns(path, INVESTOR_COLUMNS)
    ids = list(map(str.strip, ids))
    labels = [text.strip().lower() for text in types]
    unknown = [label not in INVESTOR_TYPES for label in labels]
    _check(
        path, short_row,
        (_find(ids, ""), lambda _: "empty investor_id"),
        (_first_repeat(ids), lambda i: f"duplicate investor_id {ids[i]!r}"),
        (_find(unknown, True), lambda i: f"unknown investor type {types[i]!r}"),
    )
    return tuple(map(RawInvestor, ids, names, labels))


def _load_rounds(path, startups: StartupTable,
                 investors: tuple[RawInvestor, ...]) -> RoundTable:
    (ids, sids, announced, stages, amounts, members), short_row = _read_columns(
        path, ROUND_COLUMNS)
    ids = list(map(str.strip, ids))
    announced_on = Categorical.encode(announced, _parse_date)
    parsed = list(map(_parse_amount, amounts))  # amounts are mostly distinct
    amount = np.array(parsed, dtype=float)
    members = Categorical.encode(members, _split_list)
    _check(
        path, short_row,
        (_find(ids, ""), lambda _: "empty round_id"),
        (_first_repeat(ids), lambda i: f"duplicate round_id {ids[i]!r}"),
        (_first(announced_on.rows_where(lambda v: v is None)),
         lambda i: f"unparsable date {announced[i]!r}"),
        (_find(parsed, None), lambda i: f"unparsable amount {amounts[i].strip()!r}"),
        (_first(amount < 0), lambda i: f"negative amount {parsed[i]}"),
        (_first(members.rows_where(lambda v: _repeated(v) is not None)),
         lambda i: f"investor {_repeated(members[i])!r} listed twice"),
    )

    row_of = dict(zip(startups.ids, range(len(startups))))
    startup = np.fromiter(map(row_of.get, map(str.strip, sids), repeat(-1)), np.intp, len(ids))
    known = {inv.investor_id for inv in investors}
    lost_members = members.rows_where(lambda v: not known.issuperset(v))
    dangling = []
    for row in np.flatnonzero((startup < 0) | lost_members).tolist():
        if startup[row] < 0:
            dangling.append(f"round {ids[row]!r} -> startup {sids[row].strip()!r}")
        dangling.extend(f"round {ids[row]!r} -> investor {iid!r}"
                        for iid in members[row] if iid not in known)
    if dangling:
        raise IntegrityError("dangling foreign keys: " + "; ".join(dangling))

    return RoundTable.from_columns(
        ids, startup, startups.ids, announced_on, Categorical.encode(stages, str.strip),
        amount, members)


def load_dataset(startups_path, rounds_path, investors_path,
                 ontology_path=None) -> ValidatedDataset:
    """Parse the three CSV tables and the ontology, verifying referential integrity.

    Without an ``ontology_path`` the packaged default ontology is used.
    Raises :class:`SchemaError` naming ``file:row`` of the first bad row
    (tables in the order startups, investors, rounds) and, when every row
    parses, :class:`IntegrityError` listing every dangling foreign key.
    """
    ontology = default_ontology() if ontology_path is None else load_ontology(ontology_path)
    startups = _load_startups(startups_path)
    investors = _load_investors(investors_path)
    rounds = _load_rounds(rounds_path, startups, investors)
    return ValidatedDataset(startups=startups, rounds=rounds, investors=investors,
                            ontology=ontology)


def dump_dataset(dataset: ValidatedDataset, out_dir) -> dict[str, Path]:
    """Write the dataset back out in the loadable CSV/JSON formats.

    Inverse of :func:`load_dataset` up to whitespace normalization: a
    load -> dump -> load cycle reproduces the tables exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "startups": out_dir / "startups.csv",
        "rounds": out_dir / "rounds.csv",
        "investors": out_dir / "investors.csv",
        "ontology": out_dir / "ontology.json",
    }
    with paths["startups"].open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(STARTUP_COLUMNS)
        for s in dataset.startups:
            writer.writerow([s.startup_id, s.name, s.country_code, s.status.value,
                             s.founded_date.isoformat(), "|".join(s.tags)])
    with paths["rounds"].open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(ROUND_COLUMNS)
        for r in dataset.rounds:
            writer.writerow([
                r.round_id, r.startup_id, r.announced_date.isoformat(), r.stage_label,
                "" if r.amount_usd is None else repr(r.amount_usd),
                "|".join(r.investor_ids),
            ])
    with paths["investors"].open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(INVESTOR_COLUMNS)
        for inv in dataset.investors:
            writer.writerow([inv.investor_id, inv.name, inv.type_label])
    dump_ontology(dataset.ontology, paths["ontology"])
    return paths


def filter_startups(dataset: ValidatedDataset,
                    cutoff: dt.date = DEFAULT_FOUNDED_CUTOFF,
                    country: str = DEFAULT_COUNTRY) -> ValidatedDataset:
    """Keep startups that match ``country``, are not closed, were founded
    strictly after ``cutoff`` and appear in at least one round; drop the
    rounds of removed startups. Idempotent.
    """
    startups, rounds = dataset.startups, dataset.rounds
    keep = np.zeros(len(startups), dtype=bool)
    keep[rounds.startup] = True
    keep &= startups.country.rows_where(lambda code: code == country)
    keep &= startups.status.rows_where(lambda status: status is not StartupStatus.CLOSED)
    keep &= startups.founded.rows_where(lambda founded: founded > cutoff)
    kept = startups.take(np.flatnonzero(keep))
    return ValidatedDataset(
        startups=kept,
        rounds=rounds.take(np.flatnonzero(keep[rounds.startup]), kept.ids,
                           np.cumsum(keep) - 1),
        investors=dataset.investors,
        ontology=dataset.ontology,
    )


def validate_dataset(dataset: ValidatedDataset) -> list[str]:
    """Non-fatal consistency report: unknown tags, unclassifiable stages,
    startups with no tags. Returns a list of warning strings (empty = clean).
    """
    startups, rounds = dataset.startups, dataset.rounds
    # per distinct tag set: None for no tags, else its unknown tags
    unknown = [dataset.ontology.resolve(tags)[1] if tags else None
               for tags in startups.tags.values]
    noisy = np.array([u != () for u in unknown], dtype=bool)[startups.tags.codes]
    warnings: list[str] = []
    for row in np.flatnonzero(noisy).tolist():
        sid = startups.ids[row]
        tags = unknown[startups.tags.codes[row]]
        if tags is None:
            warnings.append(f"startup {sid!r} has no tags")
        else:
            warnings.extend(f"startup {sid!r}: unknown tag {tag!r}" for tag in tags)
    unclassified = rounds.stage.rows_where(lambda label: classify_stage(label) is None)
    for row in np.flatnonzero(unclassified).tolist():
        warnings.append(f"round {rounds.ids[row]!r}: unclassifiable stage {rounds.stage[row]!r}")
    return warnings
