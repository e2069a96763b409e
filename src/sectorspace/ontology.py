"""Sector ontology: parent tags and the child-tag resolution map.

The parent tags define the axes of sector space. Their order in the
ontology file is load-bearing: every strategy vector, PCA loading and
tensor slice downstream indexes sectors in this order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import OntologyError
from .reports import _write_atomically


@dataclass(frozen=True)
class SectorOntology:
    """Fixed, ordered list of parent sector tags plus a child-tag map.

    ``child_map`` sends any recognized tag string to the set of parent
    tags it belongs to. Parents always map to themselves; the constructor
    fills those entries in if the source file omits them.
    """

    parent_tags: tuple[str, ...]
    child_map: dict[str, frozenset[str]] = field(default_factory=dict)
    version: str = "unversioned"

    def __post_init__(self):
        if not self.parent_tags:
            raise OntologyError("ontology has no parent tags")
        seen = set()
        for tag in self.parent_tags:
            if not tag:
                raise OntologyError("empty parent tag name")
            if tag in seen:
                raise OntologyError(f"duplicate parent tag {tag!r}")
            seen.add(tag)
        normalized: dict[str, frozenset[str]] = {}
        for child, parents in self.child_map.items():
            parents = frozenset(parents)
            if not parents:
                raise OntologyError(f"child tag {child!r} maps to no parents")
            unknown = parents - seen
            if unknown:
                raise OntologyError(
                    f"child tag {child!r} maps to unknown parents {sorted(unknown)}"
                )
            normalized[child] = parents
        for tag in self.parent_tags:
            normalized.setdefault(tag, frozenset({tag}))
        object.__setattr__(self, "child_map", normalized)

    @property
    def n_sectors(self) -> int:
        return len(self.parent_tags)

    def index(self, tag: str) -> int:
        try:
            return self.parent_tags.index(tag)
        except ValueError:
            raise OntologyError(f"{tag!r} is not a parent tag") from None

    def resolve(self, tags) -> tuple[frozenset[str], tuple[str, ...]]:
        """Map raw tag strings to parent tags.

        Returns ``(parents, unknown)`` where ``parents`` is the union of
        the child-map images of all recognized tags and ``unknown`` lists
        the tags the ontology does not know, in input order.
        """
        parents: set[str] = set()
        unknown: list[str] = []
        for tag in tags:
            hit = self.child_map.get(tag)
            if hit is None:
                unknown.append(tag)
            else:
                parents.update(hit)
        return frozenset(parents), tuple(unknown)


def _is_tag_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(tag, str) for tag in value)


def load_ontology(path) -> SectorOntology:
    """Load an ontology from a JSON file (UTF-8, with or without a byte order mark).

    Expected shape: ``{"parent_tags": [...], "child_map": {child: [parents]},
    "version": "..."}``. ``child_map`` and ``version`` are optional. A file
    that is not UTF-8 JSON of this shape raises :class:`OntologyError`.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError:
        raise OntologyError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise OntologyError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict) or "parent_tags" not in raw:
        raise OntologyError(f"{path}: expected a JSON object with a 'parent_tags' list")
    if not _is_tag_list(raw["parent_tags"]):
        raise OntologyError(f"{path}: 'parent_tags' must be a list of strings")
    child_map = raw.get("child_map", {})
    if not isinstance(child_map, dict) or not all(map(_is_tag_list, child_map.values())):
        raise OntologyError(f"{path}: 'child_map' must map each tag to a list of strings")
    return SectorOntology(
        parent_tags=tuple(raw["parent_tags"]),
        child_map={child: frozenset(parents) for child, parents in child_map.items()},
        version=str(raw.get("version", "unversioned")),
    )


def dump_ontology(ontology: SectorOntology, path) -> None:
    payload = {
        "version": ontology.version,
        "parent_tags": list(ontology.parent_tags),
        "child_map": {
            child: sorted(parents) for child, parents in sorted(ontology.child_map.items())
        },
    }
    text = json.dumps(payload, indent=2) + "\n"
    _write_atomically(path, lambda handle: handle.write(text))


def default_ontology() -> SectorOntology:
    """The 28-sector ontology shipped with the package."""
    ref = resources.files("sectorspace").joinpath("data/default_ontology.json")
    with resources.as_file(ref) as path:
        return load_ontology(path)
