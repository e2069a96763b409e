"""Loading, validation and filtering of the raw funding tables.

File formats (UTF-8 CSV with header row, RFC-4180 quoting):

* ``startups.csv``  -- startup_id,name,country_code,status,founded_date,tags
  (``tags`` pipe-delimited)
* ``rounds.csv``    -- round_id,startup_id,announced_date,stage_label,amount_usd,investor_ids
  (``investor_ids`` pipe-delimited, ``amount_usd`` may be empty = unknown)
* ``investors.csv`` -- investor_id,name,type_label

The loaded dataset is immutable by convention and safe to share across
concurrent readers.
"""
from __future__ import annotations

import csv
import datetime as dt
import enum
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import IntegrityError, SchemaError, StageError
from .ontology import SectorOntology, default_ontology, dump_ontology, load_ontology, resolve_parents

__all__ = [
    "StartupStatus",
    "StageClass",
    "RawStartup",
    "RawRound",
    "RawInvestor",
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


@dataclass
class ValidatedDataset:
    """All four tables, parsed and referentially consistent."""

    startups: tuple[RawStartup, ...]
    rounds: tuple[RawRound, ...]
    investors: tuple[RawInvestor, ...]
    ontology: SectorOntology
    startup_by_id: dict[str, RawStartup] = field(init=False, repr=False)
    investor_by_id: dict[str, RawInvestor] = field(init=False, repr=False)

    def __post_init__(self):
        self.startup_by_id = {s.startup_id: s for s in self.startups}
        self.investor_by_id = {i.investor_id: i for i in self.investors}

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


def _parse_date(text: str, where: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise SchemaError(f"{where}: unparsable date {text!r}") from None


def _parse_amount(text: str, where: str) -> float | None:
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"{where}: unparsable amount {text!r}") from None
    if value < 0:
        raise SchemaError(f"{where}: negative amount {value}")
    return value


def _split_list(text: str) -> tuple[str, ...]:
    return tuple(part for part in (p.strip() for p in text.split("|")) if part)


def _read_rows(path, columns: list[str]):
    """Yield ``(row number, values of columns)`` for each non-blank data row.

    Row numbers count the header as row 1 and skip blank lines.
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
        picks = [position[c] for c in columns]
        pick = operator.itemgetter(*picks)
        width = max(picks) + 1
        row_no = 1
        for row in reader:
            if not row:
                continue
            row_no += 1
            if len(row) < width:
                raise SchemaError(f"{path}:{row_no}: short row")
            yield row_no, pick(row)


def load_dataset(startups_path, rounds_path, investors_path,
                 ontology_path=None) -> ValidatedDataset:
    """Parse the three CSV tables and the ontology, verifying referential integrity.

    Without an ``ontology_path`` the packaged default ontology is used.
    Raises :class:`SchemaError` (with the offending row number) on malformed
    content and :class:`IntegrityError` on dangling foreign keys.
    """
    ontology = default_ontology() if ontology_path is None else load_ontology(ontology_path)

    startups: list[RawStartup] = []
    seen_startups: set[str] = set()
    for row_no, (sid, name, country, status, founded, tags) in _read_rows(
            startups_path, STARTUP_COLUMNS):
        where = f"{startups_path}:{row_no}"
        sid = sid.strip()
        if not sid:
            raise SchemaError(f"{where}: empty startup_id")
        if sid in seen_startups:
            raise SchemaError(f"{where}: duplicate startup_id {sid!r}")
        seen_startups.add(sid)
        try:
            status_class = StartupStatus(status.strip().lower())
        except ValueError:
            raise SchemaError(f"{where}: unknown status {status!r}") from None
        startups.append(RawStartup(
            startup_id=sid,
            name=name,
            country_code=country.strip(),
            status=status_class,
            founded_date=_parse_date(founded, where),
            tags=_split_list(tags),
        ))

    investors: list[RawInvestor] = []
    seen_investors: set[str] = set()
    for row_no, (iid, name, type_text) in _read_rows(investors_path, INVESTOR_COLUMNS):
        where = f"{investors_path}:{row_no}"
        iid = iid.strip()
        if not iid:
            raise SchemaError(f"{where}: empty investor_id")
        if iid in seen_investors:
            raise SchemaError(f"{where}: duplicate investor_id {iid!r}")
        seen_investors.add(iid)
        type_label = type_text.strip().lower()
        if type_label not in INVESTOR_TYPES:
            raise SchemaError(f"{where}: unknown investor type {type_text!r}")
        investors.append(RawInvestor(investor_id=iid, name=name, type_label=type_label))

    rounds: list[RawRound] = []
    seen_rounds: set[str] = set()
    dangling: list[str] = []
    for row_no, (rid, sid, announced, stage, amount, members) in _read_rows(
            rounds_path, ROUND_COLUMNS):
        where = f"{rounds_path}:{row_no}"
        rid = rid.strip()
        if not rid:
            raise SchemaError(f"{where}: empty round_id")
        if rid in seen_rounds:
            raise SchemaError(f"{where}: duplicate round_id {rid!r}")
        seen_rounds.add(rid)
        record = RawRound(
            round_id=rid,
            startup_id=sid.strip(),
            announced_date=_parse_date(announced, where),
            stage_label=stage.strip(),
            amount_usd=_parse_amount(amount, where),
            investor_ids=_split_list(members),
        )
        if record.startup_id not in seen_startups:
            dangling.append(f"round {rid!r} -> startup {record.startup_id!r}")
        for iid in record.investor_ids:
            if iid not in seen_investors:
                dangling.append(f"round {rid!r} -> investor {iid!r}")
        rounds.append(record)

    if dangling:
        raise IntegrityError("dangling foreign keys: " + "; ".join(dangling))

    return ValidatedDataset(
        startups=tuple(startups),
        rounds=tuple(rounds),
        investors=tuple(investors),
        ontology=ontology,
    )


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
    funded = {r.startup_id for r in dataset.rounds}
    kept = tuple(
        s for s in dataset.startups
        if s.country_code == country
        and s.status is not StartupStatus.CLOSED
        and s.founded_date > cutoff
        and s.startup_id in funded
    )
    kept_ids = {s.startup_id for s in kept}
    rounds = tuple(r for r in dataset.rounds if r.startup_id in kept_ids)
    return ValidatedDataset(
        startups=kept,
        rounds=rounds,
        investors=dataset.investors,
        ontology=dataset.ontology,
    )


def validate_dataset(dataset: ValidatedDataset) -> list[str]:
    """Non-fatal consistency report: unknown tags, unclassifiable stages,
    startups with no tags. Returns a list of warning strings (empty = clean).
    """
    warnings: list[str] = []
    for startup in dataset.startups:
        if not startup.tags:
            warnings.append(f"startup {startup.startup_id!r} has no tags")
            continue
        _, unknown = dataset.ontology.resolve(startup.tags)
        for tag in unknown:
            warnings.append(f"startup {startup.startup_id!r}: unknown tag {tag!r}")
    for rnd in dataset.rounds:
        if classify_stage(rnd.stage_label) is None:
            warnings.append(f"round {rnd.round_id!r}: unclassifiable stage {rnd.stage_label!r}")
    return warnings
