"""Tests for the corpus data model, loaders, and canonical format."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from procex import corpus
from procex.corpus import (
    Constraint,
    Dataset,
    Document,
    Entity,
    LoadError,
    Mention,
    Relation,
    Token,
    ValidationError,
)


def make_doc(words, mentions=(), entities=(), relations=(), constraints=(), doc_id="d1",
             sentence_ids=None):
    if sentence_ids is None:
        sentence_ids = [0] * len(words)
    tokens = tuple(
        Token(text=w, index=i, sentence_index=s)
        for i, (w, s) in enumerate(zip(words, sentence_ids))
    )
    return Document(
        id=doc_id,
        raw_text=" ".join(words),
        tokens=tokens,
        mentions=tuple(mentions),
        entities=tuple(entities),
        relations=tuple(relations),
        constraints=tuple(constraints),
    )


# ---------------------------------------------------------------------------
# BIO decoding, oracle fixed by hand before the implementation existed

def test_bio_decode_hand_oracle():
    # hand-decoded: B opens, I continues, O separates
    tags = ["B-Actor", "I-Actor", "O", "B-Activity"]
    assert corpus.decode_bio(tags) == [("Actor", (0, 1)), ("Activity", (3,))]


def test_bio_decode_adjacent_b_tags_split():
    tags = ["B-Activity", "B-Activity"]
    assert corpus.decode_bio(tags) == [("Activity", (0,)), ("Activity", (1,))]


def test_bio_decode_bare_i_opens_span():
    # standard rules: I after O starts a fresh span
    tags = ["O", "I-Actor", "I-Actor"]
    assert corpus.decode_bio(tags) == [("Actor", (1, 2))]


def test_bio_decode_type_switch_inside_i_run():
    tags = ["B-Actor", "I-Activity"]
    assert corpus.decode_bio(tags) == [("Actor", (0,)), ("Activity", (1,))]


def test_bio_decode_rejects_garbage_tag():
    with pytest.raises(LoadError) as err:
        corpus.decode_bio(["B-Actor", "X-Actor"], line_no=7)
    assert "line 7" in str(err.value)


def test_bio_encode_decode_identity():
    mentions = [
        Mention(id="m0", mention_type="Actor", token_indices=(0, 1)),
        Mention(id="m1", mention_type="Activity", token_indices=(3,)),
    ]
    tags = corpus.encode_bio(mentions, 5)
    assert tags == ["B-Actor", "I-Actor", "O", "B-Activity", "O"]
    assert corpus.decode_bio(tags) == [("Actor", (0, 1)), ("Activity", (3,))]


def test_bio_encode_rejects_overlap():
    mentions = [
        Mention(id="m0", mention_type="Actor", token_indices=(0, 1)),
        Mention(id="m1", mention_type="Activity", token_indices=(1,)),
    ]
    with pytest.raises(ValueError):
        corpus.encode_bio(mentions, 3)


# ---------------------------------------------------------------------------
# Validation

def test_validate_clean_document():
    doc = make_doc(
        ["the", "clerk", "files", "it"],
        mentions=[
            Mention("m0", "Actor", (0, 1)),
            Mention("m1", "Activity", (2,)),
        ],
        relations=[Relation("r0", "actor performer", "m1", "m0")],
    )
    assert corpus.validate(doc) == []


def test_validate_names_dangling_relation_endpoint():
    doc = make_doc(
        ["a", "b"],
        mentions=[Mention("m0", "Actor", (0,))],
        relations=[Relation("r0", "flow", "m0", "m9")],
    )
    problems = corpus.validate(doc)
    assert any("r0" in p and "m9" in p for p in problems)


def test_validate_rejects_duplicate_typed_span():
    doc = make_doc(
        ["a", "b"],
        mentions=[Mention("m0", "Actor", (0,)), Mention("m1", "Actor", (0,))],
    )
    assert any("duplicate (type, span)" in p for p in corpus.validate(doc))


def test_validate_rejects_mention_shared_between_entities():
    doc = make_doc(
        ["a", "b"],
        mentions=[Mention("m0", "Actor", (0,))],
        entities=[
            Entity("e0", frozenset({"m0"})),
            Entity("e1", frozenset({"m0"})),
        ],
    )
    assert any("already in entity" in p for p in corpus.validate(doc))


def test_validate_checks_constraint_arity_against_schema():
    schema = corpus.load_schema("decon")
    doc = make_doc(
        ["x"],
        constraints=[
            Constraint("c0", "init", False, "register claim", "file claim"),
            Constraint("c1", "response", False, "register claim", None),
        ],
        doc_id="d9",
    )
    problems = corpus.validate(doc, schema)
    assert any("c0" in p and "unary" in p for p in problems)
    assert any("c1" in p and "second action" in p for p in problems)


def test_validate_flags_unnormalized_action():
    doc = make_doc(["x"], constraints=[Constraint("c0", "init", False, "Register  claim")])
    assert any("not normalized" in p for p in corpus.validate(doc))


# ---------------------------------------------------------------------------
# Shape checks on decoded JSON

ROWS = {"rows?": [{"id": str, "ids": [int], "note?": (str, type(None))}],
        "names": {str: [str]}}

SHAPE_CASES = [
    ({"names": {}}, None),
    ({"names": {"a": ["x"]}, "rows": [{"id": "r", "ids": [1], "extra": 5}]}, None),
    ({"names": {}, "rows": [{"id": "r", "ids": [], "note": None}]}, None),
    ([], "x is an array, not an object"),
    ({}, "x has no field 'names'"),
    ({"names": {"a": "x"}}, "x field 'names{}' is a string, not an array"),
    ({"names": {}, "rows": None}, "x field 'rows' is null, not an array"),
    ({"names": {}, "rows": [{"id": "r", "ids": [1]}, {"ids": []}]},
     "x has no field 'rows[].id'"),
    ({"names": {}, "rows": [{"id": "r", "ids": [1, 2.5]}]},
     "x field 'rows[].ids[]' is a number, not an integer"),
    ({"names": {}, "rows": [{"id": "r", "ids": [], "note": 1}]},
     "x field 'rows[].note' is an integer, not a string or null"),
]


@pytest.mark.parametrize("value, message", SHAPE_CASES)
def test_check_names_the_first_mismatch(value, message):
    if message is None:
        assert corpus.check(value, ROWS, "x") is value
    else:
        with pytest.raises(LoadError) as err:
            corpus.check(value, ROWS, "x")
        assert str(err.value) == message


def test_deeply_nested_json_is_a_load_error():
    with pytest.raises(LoadError) as err:
        corpus.decode_json("[" * 100_000, "line 1")
    assert str(err.value).startswith("line 1: ")


# ---------------------------------------------------------------------------
# PET layout loader

PET_LINE = {
    "document name": "doc-9.9",
    "tokens": ["The", "clerk", "registers", "the", "claim", "."],
    "sentence-IDs": [0, 0, 0, 0, 0, 0],
    "ner-tags": ["B-Actor", "I-Actor", "B-Activity", "B-Activity Data", "I-Activity Data", "O"],
    "relations": [
        {"relation-type": "actor performer", "source-mention-id": 1, "target-mention-id": 0},
        {"relation-type": "uses", "source-mention-id": 1, "target-mention-id": 2},
    ],
    "entity-clusters": [[0], [2]],
}


def test_load_pet_decodes_documents(tmp_path):
    path = tmp_path / "pet.jsonl"
    path.write_text(json.dumps(PET_LINE) + "\n", encoding="utf-8")
    ds = corpus.load_pet(path)
    assert len(ds.documents) == 1
    doc = ds.documents[0]
    assert doc.id == "doc-9.9"
    assert [m.mention_type for m in doc.mentions] == ["Actor", "Activity", "Activity Data"]
    assert doc.surface(doc.mentions[0]) == "The clerk"
    assert doc.relations[0].relation_type == "actor performer"
    assert len(ds.schema.mention_types) == 7
    assert len(ds.schema.relation_types) == 6


def test_load_pet_names_bad_line(tmp_path):
    path = tmp_path / "pet.jsonl"
    path.write_text(json.dumps(PET_LINE) + "\n{not json\n", encoding="utf-8")
    with pytest.raises(LoadError) as err:
        corpus.load_pet(path)
    assert "line 2" in str(err.value)


def test_load_pet_names_document_on_dangling_ordinal(tmp_path):
    bad = dict(PET_LINE)
    bad["relations"] = [
        {"relation-type": "uses", "source-mention-id": 0, "target-mention-id": 12}
    ]
    path = tmp_path / "pet.jsonl"
    path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        corpus.load_pet(path)
    assert "doc-9.9" in str(err.value)


def test_load_pet_rejects_length_mismatch(tmp_path):
    bad = dict(PET_LINE)
    bad["sentence-IDs"] = [0, 0]
    path = tmp_path / "pet.jsonl"
    path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(LoadError) as err:
        corpus.load_pet(path)
    assert "line 1" in str(err.value)


# ---------------------------------------------------------------------------
# Canonical round trip

def sample_dataset():
    schema = corpus.load_schema("pet")
    doc = make_doc(
        ["The", "clerk", "registers", "the", "claim", "then", "files", "it", "."],
        mentions=[
            Mention("m0", "Actor", (0, 1)),
            Mention("m1", "Activity", (2,)),
            Mention("m2", "Activity Data", (3, 4)),
            Mention("m3", "Activity", (6,)),
            Mention("m4", "Activity Data", (7,)),
        ],
        entities=[Entity("e0", frozenset({"m2", "m4"}))],
        relations=[
            Relation("r0", "flow", "m1", "m3"),
            Relation("r1", "uses", "m1", "m2"),
            Relation("r2", "actor performer", "m1", "m0"),
        ],
        doc_id="doc-1.1",
    )
    return Dataset(schema=schema, documents=(doc,))


def test_canonical_round_trip_identity(tmp_path):
    ds = sample_dataset()
    path = tmp_path / "ds.jsonl"
    corpus.save_canonical(ds, path)
    loaded = corpus.load_canonical(path)
    assert loaded == ds


def test_canonical_records_carry_format_version(tmp_path):
    ds = sample_dataset()
    path = tmp_path / "ds.jsonl"
    corpus.save_canonical(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines:
        assert json.loads(line)["format_version"] == 1


def test_canonical_load_rejects_unknown_version(tmp_path):
    ds = sample_dataset()
    path = tmp_path / "ds.jsonl"
    corpus.save_canonical(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["format_version"] = 99
    path.write_text(lines[0] + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(LoadError):
        corpus.load_canonical(path)


def test_canonical_load_keeps_unicode_line_separators_inside_strings(tmp_path):
    # U+2028 may stand unescaped inside a JSON string; only "\n" ends a line
    ds = sample_dataset()
    doc = dataclasses.replace(ds.documents[0], raw_text=ds.documents[0].raw_text + "\u2028")
    header = {"format_version": 1, "schema": ds.schema.to_record()}
    path = tmp_path / "ds.jsonl"
    path.write_text(json.dumps(header) + "\n"
                    + json.dumps(corpus.document_to_record(doc), ensure_ascii=False) + "\n",
                    encoding="utf-8")
    assert corpus.load_canonical(path).documents == (doc,)


# ---------------------------------------------------------------------------
# Property: random valid documents survive the canonical round trip

@st.composite
def valid_documents(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    words = [draw(st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"]))
             for _ in range(n)]
    sentence_ids = sorted(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    starts = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    mentions = []
    used = set()
    for k, s in enumerate(sorted(starts)):
        length = draw(st.integers(1, 2))
        span = tuple(range(s, min(s + length, n)))
        if any(i in used for i in span):
            continue
        used.update(span)
        mentions.append(Mention(f"m{k}", draw(st.sampled_from(["Actor", "Activity"])), span))
    entities = []
    if len(mentions) >= 2 and draw(st.booleans()):
        entities.append(Entity("e0", frozenset(m.id for m in mentions[:2])))
    relations = []
    if len(mentions) >= 2 and draw(st.booleans()):
        relations.append(Relation("r0", "flow", mentions[0].id, mentions[1].id))
    constraints = []
    if draw(st.booleans()):
        constraints.append(Constraint("c0", "response", draw(st.booleans()),
                                      "register claim", "examine claim"))
    tokens = tuple(Token(w, i, s) for i, (w, s) in enumerate(zip(words, sentence_ids)))
    return Document(
        id="prop-doc", raw_text=" ".join(words), tokens=tokens,
        mentions=tuple(mentions), entities=tuple(entities),
        relations=tuple(relations), constraints=tuple(constraints),
    )


@settings(max_examples=60, deadline=None)
@given(doc=valid_documents())
def test_random_documents_round_trip(tmp_path_factory, doc):
    assert corpus.validate(doc) == []
    record = corpus.document_to_record(doc)
    again = corpus.document_from_record(json.loads(json.dumps(record)))
    assert again == doc


@settings(max_examples=60, deadline=None)
@given(doc=valid_documents())
def test_bio_identity_on_document_tags(doc):
    tags = corpus.encode_bio(list(doc.mentions), len(doc.tokens))
    decoded = corpus.decode_bio(tags)
    assert corpus.encode_bio(
        [Mention(f"x{i}", t, span) for i, (t, span) in enumerate(decoded)],
        len(doc.tokens),
    ) == tags


# ---------------------------------------------------------------------------
# schema name resolution

def test_schema_names_resolve_case_and_separator_insensitively():
    schema = corpus.SchemaDescriptor(
        dataset_name="names",
        mention_types=("Activity Data", "XOR Gateway"),
        relation_types=("actor performer",),
        constraint_types=("init", "response"),
        unary_constraint_types=frozenset({"init"}),
        mention_roles={"data": ("Activity Data",)},
        relation_roles={"performer": ("actor performer",)},
    )
    assert schema.canonical_mention_type("activity_data") == "Activity Data"
    assert schema.canonical_mention_type("  xor \t  GATEWAY ") == "XOR Gateway"
    assert schema.canonical_relation_type("Actor_Performer") == "actor performer"
    assert schema.canonical_constraint_type("RESPONSE") == "response"
    assert schema.mention_role_of("ACTIVITY_data") == "data"
    assert schema.relation_role_of("actor  Performer") == "performer"
    assert schema.is_unary("INIT") and not schema.is_unary("response")
    # each kind resolves against its own inventory only
    assert schema.canonical_relation_type("XOR Gateway") is None
    assert schema.canonical_mention_type("unknown") is None
    assert schema.canonical_constraint_type("Activity Data") is None
    assert schema.mention_role_of("XOR Gateway") is None
    assert schema.relation_role_of("flow") is None
    assert not schema.is_unary("unknown")


def test_schema_names_first_declaration_wins():
    schema = corpus.SchemaDescriptor(
        dataset_name="dupes",
        mention_types=("Actor", "actor"),
        relation_types=("flow", "FLOW"),
        mention_roles={"actor": ("Actor",), "agent": ("actor", "Agent")},
        relation_roles={"flow": ("flow",), "sequence": ("Flow",)},
    )
    assert schema.canonical_mention_type("ACTOR") == "Actor"
    assert schema.canonical_relation_type("Flow") == "flow"
    assert schema.mention_role_of("actor") == "actor"
    assert schema.mention_role_of("agent") == "agent"
    assert schema.relation_role_of("FLOW") == "flow"


def test_schema_copy_resolves_against_its_own_fields():
    schema = corpus.load_schema("pet")
    assert schema.canonical_mention_type("actor") == "Actor"
    narrowed = dataclasses.replace(schema, mention_types=("Activity",),
                                   mention_roles={"actor": ("Activity",)})
    assert narrowed.canonical_mention_type("actor") is None
    assert narrowed.canonical_mention_type("activity") == "Activity"
    assert narrowed.mention_role_of("Activity") == "actor"
    # the parent keeps its own table
    assert schema.canonical_mention_type("actor") == "Actor"
    assert schema.mention_role_of("Activity") == "activity"


MEMO_SCHEMA = corpus.SchemaDescriptor(
    dataset_name="memo",
    mention_types=("Activity Data", "XOR Gateway", "actor"),
    relation_types=("actor performer", "flow"),
    constraint_types=("init", "response"),
    unary_constraint_types=frozenset({"init"}),
    mention_roles={"data": ("Activity Data",), "actor": ("actor",)},
    relation_roles={"performer": ("actor performer",), "flow": ("FLOW",)},
)
DECLARED_NAMES = ["Activity Data", "XOR Gateway", "actor", "actor performer", "flow",
                  "FLOW", "init", "response"]


def scan_resolve(declared, name):
    """First declared (value, names) entry whose names normalize like name."""
    key = corpus.normalize_type_name(name)
    return next((value for value, names in declared
                 if any(corpus.normalize_type_name(n) == key for n in names)), None)


# declared names with case, separator and whitespace changes, and text
NAME_VARIANTS = st.one_of(
    st.text(max_size=12),
    st.tuples(st.sampled_from(DECLARED_NAMES), st.sampled_from(["", " ", "_", "\t"]),
              st.booleans()).map(
        lambda t: (t[0].upper() if t[2] else t[0]).replace(" ", t[1] or " ") + t[1]
    ),
)


@settings(max_examples=200, deadline=None)
@given(names=st.lists(NAME_VARIANTS, max_size=6))
def test_memoized_resolution_equals_uncached_lookup(names):
    schema = dataclasses.replace(MEMO_SCHEMA)  # a fresh, empty memo
    inventories = {
        schema.canonical_mention_type: [(t, (t,)) for t in schema.mention_types],
        schema.canonical_relation_type: [(t, (t,)) for t in schema.relation_types],
        schema.canonical_constraint_type: [(t, (t,)) for t in schema.constraint_types],
        schema.mention_role_of: list(schema.mention_roles.items()),
        schema.relation_role_of: list(schema.relation_roles.items()),
    }
    # every name twice: the second lookup comes from the memo
    for name in names + names:
        for resolve, declared in inventories.items():
            assert resolve(name) == scan_resolve(declared, name), (resolve, name)
        assert schema.is_unary(name) == (
            scan_resolve([(t, (t,)) for t in schema.unary_constraint_types], name)
            is not None
        )


def test_schema_copy_resolves_after_the_original_was_queried():
    schema = corpus.load_schema("pet")
    queries = [
        (schema.canonical_mention_type, "actor"),
        (schema.canonical_relation_type, "flow"),
        (schema.mention_role_of, "Activity"),
        (schema.relation_role_of, "flow"),
    ]
    before = [resolve(name) for resolve, name in queries]
    assert before == ["Actor", "flow", "activity", "flow"]
    narrowed = dataclasses.replace(
        schema, mention_types=("Activity",), relation_types=("uses",),
        mention_roles={"actor": ("Activity",)}, relation_roles={"sequence": ("flow",)},
    )
    assert narrowed.canonical_mention_type("actor") is None
    assert narrowed.canonical_relation_type("flow") is None
    assert narrowed.mention_role_of("Activity") == "actor"
    assert narrowed.relation_role_of("flow") == "sequence"
    assert [resolve(name) for resolve, name in queries] == before
