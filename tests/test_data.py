"""Checks over the sample corpora shipped under data/."""

import importlib.util
from pathlib import Path

import pytest

from procex import corpus

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def pet():
    return corpus.load_pet(DATA / "pet.jsonl")


@pytest.fixture(scope="module")
def decon():
    return corpus.load_canonical(DATA / "decon.jsonl")


@pytest.fixture(scope="module")
def atdp():
    return corpus.load_canonical(DATA / "atdp.jsonl")


def test_pet_shape(pet):
    assert len(pet.documents) == 45
    assert corpus.validate_dataset(pet) == []
    ids = {d.id for d in pet.documents}
    assert "doc-3.3" in ids and len(ids) == 45


def test_pet_covers_whole_inventory(pet):
    mention_types = {m.mention_type for d in pet.documents for m in d.mentions}
    relation_types = {r.relation_type for d in pet.documents for r in d.relations}
    assert mention_types == set(pet.schema.mention_types)
    assert relation_types == set(pet.schema.relation_types)


def test_pet_fixture_document(pet):
    doc = pet.document("doc-3.3")
    assert "sent back" in doc.raw_text
    by_type = {}
    for m in doc.mentions:
        by_type.setdefault(m.mention_type, []).append(m)
    assert len(by_type["Activity"]) == 5
    assert len(by_type["XOR Gateway"]) == 2
    assert len(by_type["Condition Specification"]) == 1
    # the send-back step has no performer relation in the source text
    mmap = doc.mention_map()
    sent_back = next(m for m in by_type["Activity"] if doc.surface(m) == "sent back")
    performed = {r.source_mention_id for r in doc.relations
                 if r.relation_type == "actor performer"}
    assert sent_back.id not in performed


def test_constraint_corpora_shapes(decon, atdp):
    assert len(decon.documents) == 17
    assert len(atdp.documents) == 18
    assert corpus.validate_dataset(decon) == []
    assert corpus.validate_dataset(atdp) == []


def test_constraint_type_coverage(decon, atdp):
    used_decon = {c.constraint_type for d in decon.documents for c in d.constraints}
    used_atdp = {c.constraint_type for d in atdp.documents for c in d.constraints}
    assert used_decon == set(decon.schema.constraint_types)
    assert used_atdp == set(atdp.schema.constraint_types)
    assert any(c.negated for d in decon.documents for c in d.constraints)
    assert any(c.negated for d in atdp.documents for c in d.constraints)


def test_some_documents_have_no_constraints(atdp):
    empty = [d.id for d in atdp.documents if not d.constraints]
    assert empty, "expected at least one constraint-free document"


def test_fixture_doc33_loads_standalone():
    ds = corpus.load_canonical(DATA / "fixtures" / "doc33.json")
    assert [d.id for d in ds.documents] == ["doc-3.3"]
    assert ds.schema.dataset_name == "pet"


def test_make_datasets_regenerates_the_shipped_data(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_datasets", DATA.parent / "tools" / "make_datasets.py")
    make_datasets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_datasets)
    monkeypatch.setattr(make_datasets, "OUT", tmp_path)
    make_datasets.main()
    for name in ("pet.jsonl", "decon.jsonl", "atdp.jsonl", "fixtures/doc33.json"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
