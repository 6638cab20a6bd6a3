"""Checks over the sample corpora shipped under data/ and the tool that
generates them."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from procex import corpus
from procex.eval import MatchPolicy
from procex.parser import parse
from procex.pipeline import score_document
from procex.prompt import render_gold

DATA = Path(__file__).resolve().parent.parent / "data"


def load_make_datasets():
    spec = importlib.util.spec_from_file_location(
        "make_datasets", DATA.parent / "tools" / "make_datasets.py")
    make_datasets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_datasets)
    return make_datasets


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
    make_datasets = load_make_datasets()
    monkeypatch.setattr(make_datasets, "OUT", tmp_path)
    make_datasets.main()
    for name in ("pet.jsonl", "decon.jsonl", "atdp.jsonl", "fixtures/doc33.json"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


CEILING_WORDS = "the clerk checks the form and the clerk files the form".split()

# valid documents outside check_groundable's condition: (task, mentions,
# entities, gold items that echoing the gold lines recovers, gold items)
CEILING_CASES = {
    "two types on one span": (
        "MD", [("Actor", (1,)), ("Activity Data", (1,))], (), 1, 2),
    "nested spans of different types": (
        "MD", [("Activity Data", (3, 4)), ("Further Specification", (4,))], (), 1, 2),
    "discontiguous span": ("MD", [("Activity", (2, 4))], (), 0, 1),
    "a mention on the second occurrence only": ("MD", [("Actor", (6, 7))], (), 0, 1),
    "nested spans, each surface a mention wherever it occurs": (
        "MD", [("Activity Data", (3, 4)), ("Further Specification", (4,)),
               ("Activity Data", (9, 10)), ("Further Specification", (10,))], (), 2, 4),
    "an entity listing a surface after a later occurrence": (
        "ER", [("Actor", (1,)), ("Activity Data", (4,)), ("Actor", (7,)),
               ("Activity Data", (10,))], [("m0", "m3")], 1, 3),
}


@pytest.mark.parametrize("case", CEILING_CASES)
def test_gold_echo_ceiling_outside_the_groundable_condition(pet, case):
    task, mentions, entities, correct, gold = CEILING_CASES[case]
    doc = corpus.Document(
        id="ceiling", raw_text=" ".join(CEILING_WORDS),
        tokens=tuple(corpus.Token(w, i, 0) for i, w in enumerate(CEILING_WORDS)),
        mentions=tuple(corpus.Mention(f"m{i}", t, span)
                       for i, (t, span) in enumerate(mentions)),
        entities=tuple(corpus.Entity(f"e{i}", frozenset(ids))
                       for i, ids in enumerate(entities)),
    )
    assert corpus.validate(doc, pet.schema) == []
    with pytest.raises(AssertionError):
        load_make_datasets().check_groundable(doc)
    report = parse("\n".join(render_gold(doc, task)), task, pet.schema)
    _, scores = score_document(task, report, doc, MatchPolicy.from_schema(pet.schema))
    assert (scores.counts.correct, scores.counts.gold) == (correct, gold)


def sentence_document(pet, picks):
    """A document of the picked (story, sentence) pairs of pet, in pick order.

    It keeps the mentions that lie inside the picked sentences, under ids
    keyed by (story, mention id); the relations whose two ends are kept,
    across sentences of one story too; and each entity's kept members,
    dropping an entity left with none.
    """
    tokens, mentions, kept = [], [], {}
    for sentence_index, (story, sentence) in enumerate(picks):
        doc = pet.documents[story]
        words = [t for t in doc.tokens if t.sentence_index == sentence]
        where = {t.index: len(tokens) + k for k, t in enumerate(words)}
        tokens += [corpus.Token(t.text, where[t.index], sentence_index) for t in words]
        for m in doc.mentions:
            if all(i in where for i in m.token_indices):
                kept[story, m.id] = f"{doc.id}:{m.id}"
                mentions.append(corpus.Mention(kept[story, m.id], m.mention_type,
                                               tuple(where[i] for i in m.token_indices)))
    relations, entities = [], []
    for story in dict.fromkeys(story for story, _ in picks):
        doc = pet.documents[story]
        relations += [corpus.Relation(f"{doc.id}:{r.id}", r.relation_type,
                                      kept[story, r.source_mention_id],
                                      kept[story, r.target_mention_id])
                      for r in doc.relations
                      if (story, r.source_mention_id) in kept
                      and (story, r.target_mention_id) in kept]
        for e in doc.entities:
            members = frozenset(kept[story, mid] for mid in e.mention_ids
                                if (story, mid) in kept)
            if members:
                entities.append(corpus.Entity(f"{doc.id}:{e.id}", members))
    return corpus.Document(
        id="sentences", raw_text=" ".join(t.text for t in tokens), tokens=tuple(tokens),
        mentions=tuple(mentions), entities=tuple(entities), relations=tuple(relations))


@pytest.fixture(scope="module")
def groundable():
    check_groundable = load_make_datasets().check_groundable

    def groundable(doc):
        try:
            check_groundable(doc)
        except AssertionError:
            return False
        return True

    return groundable


# at most 3 sentences: about 70% of 3-sentence draws pass the filter, 30% of
# 5-sentence draws and none of 10-sentence draws
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gold_echo_is_exact_on_generated_documents(pet, groundable, data):
    sentences = sorted({(story, t.sentence_index)
                        for story, doc in enumerate(pet.documents) for t in doc.tokens})
    doc = data.draw(
        st.lists(st.sampled_from(sentences), min_size=1, max_size=3, unique=True)
        .map(lambda picks: sentence_document(pet, picks))
        .filter(lambda doc: corpus.validate(doc, pet.schema) == [] and groundable(doc)))
    policy = MatchPolicy.from_schema(pet.schema)
    for task in ("MD", "ER", "RE"):
        report = parse("\n".join(render_gold(doc, task)), task, pet.schema)
        _, scores = score_document(task, report, doc, policy)
        assert scores.f1 == 1.0, (task, [t.text for t in doc.tokens])
