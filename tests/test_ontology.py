"""Ontology construction, resolution and round-trips."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sectorspace.errors import OntologyError
from sectorspace.ontology import (
    SectorOntology,
    default_ontology,
    dump_ontology,
    load_ontology,
)

from conftest import TAGS4, make_ontology


def test_parent_maps_to_itself(small_ontology):
    parents, unknown = small_ontology.resolve(["Alpha"])
    assert parents == frozenset({"Alpha"})
    assert unknown == ()


def test_empty_tag_list(small_ontology):
    parents, unknown = small_ontology.resolve([])
    assert parents == frozenset()
    assert unknown == ()


def test_child_with_two_parents(small_ontology):
    parents, _ = small_ontology.resolve(["dual-child"])
    assert parents == frozenset({"Alpha", "Beta"})


def test_unknown_tags_collected_in_order(small_ontology):
    parents, unknown = small_ontology.resolve(["zzz", "alpha-child", "yyy"])
    assert parents == frozenset({"Alpha"})
    assert unknown == ("zzz", "yyy")


def test_index_order_is_load_bearing(small_ontology):
    assert [small_ontology.index(t) for t in TAGS4] == [0, 1, 2, 3]
    with pytest.raises(OntologyError):
        small_ontology.index("not-a-parent")


def test_constructor_rejects_bad_shapes():
    with pytest.raises(OntologyError):
        SectorOntology(parent_tags=())
    with pytest.raises(OntologyError):
        SectorOntology(parent_tags=("A", "A"))
    with pytest.raises(OntologyError):
        SectorOntology(parent_tags=("A", ""))
    with pytest.raises(OntologyError):
        SectorOntology(parent_tags=("A",), child_map={"c": frozenset({"B"})})
    with pytest.raises(OntologyError):
        SectorOntology(parent_tags=("A",), child_map={"c": frozenset()})


def test_dump_load_round_trip(tmp_path, small_ontology):
    path = tmp_path / "ontology.json"
    dump_ontology(small_ontology, path)
    loaded = load_ontology(path)
    assert loaded.parent_tags == small_ontology.parent_tags
    assert loaded.child_map == small_ontology.child_map
    assert loaded.version == small_ontology.version


def test_load_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(OntologyError):
        load_ontology(path)


@pytest.mark.parametrize("text, message", [
    ('{"parent_tags": ["Software"', "invalid JSON"),
    ('{"parent_tags": "Software"}', "'parent_tags' must be a list of strings"),
    ('{"parent_tags": ["Software"], "child_map": ["Software"]}',
     "'child_map' must map each tag to a list of strings"),
    ('{"parent_tags": ["Software"], "child_map": {"x": "Software"}}',
     "'child_map' must map each tag to a list of strings"),
], ids=["invalid-json", "parent-tags-string", "child-map-list", "child-map-string"])
def test_load_rejects_malformed_shapes(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(OntologyError, match=rf"bad\.json: {message}"):
        load_ontology(path)


def test_default_ontology_has_28_parents():
    onto = default_ontology()
    assert onto.n_sectors == 28
    assert "Health Care" in onto.parent_tags
    assert len(set(onto.parent_tags)) == 28
    for tag in onto.parent_tags:
        assert tag in onto.child_map[tag]


@given(st.lists(st.sampled_from(list(TAGS4) + ["alpha-child", "dual-child", "junk"])))
def test_resolution_is_subset_of_parents(tags):
    ontology = make_ontology(child_map={
        "alpha-child": frozenset({"Alpha"}),
        "dual-child": frozenset({"Alpha", "Beta"}),
    })
    parents, unknown = ontology.resolve(tags)
    assert parents <= frozenset(ontology.parent_tags)
    assert all(t == "junk" for t in unknown)
