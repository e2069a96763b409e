"""Loading, validation and filtering of the raw funding tables.

File formats (UTF-8 CSV, with or without a byte order mark, with header
row, RFC-4180 quoting):

* ``startups.csv``  -- startup_id,name,country_code,status,founded_date,tags
  (``tags`` pipe-delimited)
* ``rounds.csv``    -- round_id,startup_id,announced_date,stage_label,amount_usd,investor_ids
  (``investor_ids`` pipe-delimited, ``amount_usd`` may be empty = unknown)
* ``investors.csv`` -- investor_id,name,type_label

The startup and round tables are held as columns. Each CSV is read once,
row by row. Ids, names, startup keys and amounts, which are mostly
distinct, are kept as one list of cells per column. Every other column is
encoded as it is read: each row keeps only the code of its cell, and each
distinct cell is kept once, so a :class:`Categorical` of raw cells comes
out of the reader. Each distinct cell is then converted once
(:meth:`Categorical.convert`): statuses, dates, tag sets, stage labels
and the investors of each round (id tuples, like the startups' tags)
stay :class:`Categorical` columns of converted values. Amounts become a
float array (NaN = unknown) and the startup of each round a row index
into the startup table. No row object is built: filtering, accumulation
and :func:`dump_dataset` read the columns of :class:`StartupTable` and
:class:`RoundTable`. The investor table stays a tuple of
:class:`RawInvestor` records.

The loaded dataset is immutable by convention and safe to share across
concurrent readers.
"""
from __future__ import annotations

import csv
import datetime as dt
import enum
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .errors import IntegrityError, SchemaError
from .ontology import SectorOntology, default_ontology, dump_ontology, load_ontology
from .reports import write_rows

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

    def convert(self, convert) -> "Categorical":
        """The column with ``convert`` applied, run once per distinct value.

        Values that convert to equal results share one code; the results are
        numbered in order of first appearance.
        """
        numbered: dict = {}
        recode = [numbered.setdefault(convert(value), len(numbered)) for value in self.values]
        return Categorical(np.array(recode, dtype=np.intp)[self.codes], tuple(numbered))

    def __getitem__(self, row: int):
        return self.values[self.codes[row]]

    def cells(self, format_value=str) -> list[str]:
        """One formatted cell per row; each distinct value is formatted once."""
        formatted = [format_value(value) for value in self.values]
        return list(map(formatted.__getitem__, self.codes.tolist()))

    def rows_where(self, predicate) -> np.ndarray:
        """Mask of the rows whose value satisfies ``predicate`` (called once per value)."""
        return np.array([bool(predicate(v)) for v in self.values], dtype=bool)[self.codes]

    def take(self, rows: np.ndarray) -> "Categorical":
        """The given rows, keeping only the values they use."""
        codes = self.codes[rows]
        used = np.bincount(codes, minlength=len(self.values)) > 0
        return Categorical((np.cumsum(used) - 1)[codes], tuple(compress(self.values, used)))


@dataclass(frozen=True, eq=False)
class StartupTable:
    """The startups as columns, one entry per row."""

    ids: tuple[str, ...]
    names: tuple[str, ...]
    country: Categorical
    status: Categorical
    founded: Categorical
    tags: Categorical

    def __len__(self) -> int:
        return len(self.ids)

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
class RoundTable:
    """The rounds as columns, one entry per row.

    ``startup`` holds each round's row in the startup table whose ids are
    ``startup_ids``; ``amount`` is NaN where unknown; ``investors[i]`` is
    the tuple of investor ids of round ``i``, in file order.
    """

    ids: tuple[str, ...]
    startup: np.ndarray
    startup_ids: tuple[str, ...]
    announced: Categorical
    stage: Categorical
    amount: np.ndarray
    investors: Categorical

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def year(self) -> np.ndarray:
        return np.array([d.year for d in self.announced.values], dtype=np.intp)[
            self.announced.codes]

    def take(self, rows: np.ndarray, startup_ids: tuple[str, ...],
             startup_row: np.ndarray) -> "RoundTable":
        """The given rows, pointing into a new startup table.

        ``startup_row`` maps each row of the current startup table to its row
        in the one whose ids are ``startup_ids``.
        """
        return RoundTable(
            ids=tuple(map(self.ids.__getitem__, rows.tolist())),
            startup=startup_row[self.startup[rows]],
            startup_ids=startup_ids,
            announced=self.announced.take(rows),
            stage=self.stage.take(rows),
            amount=self.amount[rows],
            investors=self.investors.take(rows),
        )


@dataclass
class ValidatedDataset:
    """All four tables, parsed and referentially consistent."""

    startups: StartupTable
    rounds: RoundTable
    investors: tuple[RawInvestor, ...]
    ontology: SectorOntology

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


def classify_stage(stage_label: str) -> StageClass | None:
    """Classify a free-form stage label into one of the four stage buckets.

    Case and punctuation are normalized first, so "Series-A", "series_a"
    and "SERIES A" agree. Any single-letter series from C onward lands in
    ``SERIES_C_PLUS``. Unknown labels are unclassified (``None``).
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
    return None


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


def _read_columns(path, columns: list[str], encoded=()) -> tuple[list, int | None]:
    """Read the cells of ``columns``: one list per column, except that a
    column named in ``encoded`` comes as a :class:`Categorical` of its raw
    cells, each row's cell replaced by its code as the row is read.

    Blank lines are skipped and not numbered, so data row ``i`` (from 0) is
    row ``i + 2`` of the file. Reading stops at the first row too short to
    hold every column; its index is returned (``None`` if there is none),
    so that a bad row before it is reported first. The file is UTF-8, with
    or without a byte order mark.
    """
    path = Path(path)
    cells = [[] for _ in columns]
    cell_codes = {name: {} for name in encoded}
    short_row = None
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            position = {name: i for i, name in enumerate(header)}
            missing = [c for c in columns if c not in position]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}")
            repeated = [c for c in columns if header.count(c) > 1]
            if repeated:
                raise SchemaError(f"{path}: repeated columns {repeated}")
            plain = [(column.append, position[name])
                     for column, name in zip(cells, columns) if name not in cell_codes]
            coded = [(column.append, cell_codes[name], position[name])
                     for column, name in zip(cells, columns) if name in cell_codes]
            width = max(position[name] for name in columns) + 1
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    short_row = len(cells[0])
                    break
                for append, i in plain:
                    append(row[i])
                for append, code_of, i in coded:
                    cell = row[i]
                    code = code_of.get(cell)
                    if code is None:
                        code = code_of[cell] = len(code_of)
                    append(code)
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not UTF-8 text") from None
    return [Categorical(np.array(column, dtype=np.intp), tuple(cell_codes[name]))
            if name in cell_codes else column
            for column, name in zip(cells, columns)], short_row


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


def _load_startups(path) -> tuple[StartupTable, dict[str, int]]:
    """The startup table and the row of each startup id."""
    (ids, names, countries, statuses, founded, tags), short_row = _read_columns(
        path, STARTUP_COLUMNS, ("country_code", "status", "founded_date", "tags"))
    ids = list(map(str.strip, ids))
    row_of = dict(zip(ids, range(len(ids))))
    status = statuses.convert(_parse_status)
    founded_on = founded.convert(_parse_date)
    _check(
        path, short_row,
        (_find(ids, ""), lambda _: "empty startup_id"),
        (None if len(row_of) == len(ids) else _first_repeat(ids),
         lambda i: f"duplicate startup_id {ids[i]!r}"),
        (_first(status.rows_where(lambda v: v is None)),
         lambda i: f"unknown status {statuses[i]!r}"),
        (_first(founded_on.rows_where(lambda v: v is None)),
         lambda i: f"unparsable date {founded[i]!r}"),
    )
    return StartupTable(
        ids=tuple(ids),
        names=tuple(names),
        country=countries.convert(str.strip),
        status=status,
        founded=founded_on,
        tags=tags.convert(_split_list),
    ), row_of


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


def _load_rounds(path, startups: StartupTable, startup_row: dict[str, int],
                 investors: tuple[RawInvestor, ...]) -> RoundTable:
    (ids, sids, announced, stages, amounts, member_cells), short_row = _read_columns(
        path, ROUND_COLUMNS, ("announced_date", "stage_label", "investor_ids"))
    ids = list(map(str.strip, ids))
    announced_on = announced.convert(_parse_date)
    parsed = list(map(_parse_amount, amounts))  # amounts are mostly distinct
    amount = np.array(parsed, dtype=float)
    members = member_cells.convert(_split_list)
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

    startup = np.fromiter(map(startup_row.get, map(str.strip, sids), repeat(-1)), np.intp,
                          len(ids))
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

    return RoundTable(tuple(ids), startup, startups.ids, announced_on,
                      stages.convert(str.strip), amount, members)


def load_dataset(startups_path, rounds_path, investors_path,
                 ontology_path=None) -> ValidatedDataset:
    """Parse the three CSV tables and the ontology, verifying referential integrity.

    Without an ``ontology_path`` the packaged default ontology is used.
    Raises :class:`SchemaError` naming ``file:row`` of the first bad row
    (tables in the order startups, investors, rounds) and, when every row
    parses, :class:`IntegrityError` listing every dangling foreign key.
    """
    ontology = default_ontology() if ontology_path is None else load_ontology(ontology_path)
    startups, startup_row = _load_startups(startups_path)
    investors = _load_investors(investors_path)
    rounds = _load_rounds(rounds_path, startups, startup_row, investors)
    return ValidatedDataset(startups=startups, rounds=rounds, investors=investors,
                            ontology=ontology)


def dump_dataset(dataset: ValidatedDataset, out_dir) -> dict[str, Path]:
    """Write the dataset back out in the loadable CSV/JSON formats.

    Inverse of :func:`load_dataset` up to whitespace normalization: a
    load -> dump -> load cycle reproduces the tables exactly. The tables
    are written from their columns, each distinct categorical value
    formatted once, through :func:`reports.write_rows`.
    """
    out_dir = Path(out_dir)
    paths = {
        "startups": out_dir / "startups.csv",
        "rounds": out_dir / "rounds.csv",
        "investors": out_dir / "investors.csv",
        "ontology": out_dir / "ontology.json",
    }
    startups, rounds = dataset.startups, dataset.rounds
    write_rows(paths["startups"], STARTUP_COLUMNS, zip(
        startups.ids, startups.names, startups.country.cells(),
        startups.status.cells(lambda status: status.value),
        startups.founded.cells(dt.date.isoformat), startups.tags.cells("|".join)))
    write_rows(paths["rounds"], ROUND_COLUMNS, zip(
        rounds.ids, map(rounds.startup_ids.__getitem__, rounds.startup.tolist()),
        rounds.announced.cells(dt.date.isoformat), rounds.stage.cells(),
        ["" if math.isnan(amount) else repr(amount) for amount in rounds.amount.tolist()],
        rounds.investors.cells("|".join)))
    write_rows(paths["investors"], INVESTOR_COLUMNS,
               [[inv.investor_id, inv.name, inv.type_label] for inv in dataset.investors])
    dump_ontology(dataset.ontology, paths["ontology"])
    return paths


def filter_startups(dataset: ValidatedDataset,
                    country: str = DEFAULT_COUNTRY) -> ValidatedDataset:
    """Keep startups that match ``country``, are not closed, were founded
    strictly after ``DEFAULT_FOUNDED_CUTOFF`` (2000-01-01) and appear in at
    least one round; drop the rounds of removed startups. Idempotent.
    """
    startups, rounds = dataset.startups, dataset.rounds
    keep = np.zeros(len(startups), dtype=bool)
    keep[rounds.startup] = True
    keep &= startups.country.rows_where(lambda code: code == country)
    keep &= startups.status.rows_where(lambda status: status is not StartupStatus.CLOSED)
    keep &= startups.founded.rows_where(lambda founded: founded > DEFAULT_FOUNDED_CUTOFF)
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
