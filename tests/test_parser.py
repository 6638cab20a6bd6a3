"""Parser and grounding tests."""

import json
import re
import tracemalloc
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from procex import corpus, parser
from procex.corpus import Document, Mention, Token, normalize_phrase
from procex.parser import (
    ParsedCluster,
    ParsedConstraint,
    ParsedMention,
    ParsedRelation,
    ParseReport,
    GroundedMention,
    GroundedRelation,
    ITEM_KINDS,
    WindowIndex,
    ground_clusters,
    ground_document,
    ground_relations,
    ground_report,
    item_from_record,
    item_to_record,
    parse,
)
from procex.prompt import render_gold

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def pet_schema():
    return corpus.load_schema("pet")


@pytest.fixture(scope="module")
def decon_schema():
    return corpus.load_schema("decon")


@pytest.fixture(scope="module")
def pet():
    return corpus.load_pet(DATA / "pet.jsonl")


def make_doc(words, doc_id="t"):
    tokens = tuple(Token(w, i, 0) for i, w in enumerate(words))
    return Document(id=doc_id, raw_text=" ".join(words), tokens=tokens,
                    mentions=(), entities=(), relations=(), constraints=())


# ---------------------------------------------------------------------------
# parse

def test_parse_valid_relation_line(pet_schema):
    report = parse("flow|register the claim|examine the claim", "RE", pet_schema)
    assert report.items == (
        ParsedRelation("flow", "register the claim", "examine the claim"),
    )
    assert report.error_count == 0 and report.ignored_line_count == 0


def test_parse_bad_field_count(pet_schema):
    report = parse("flow|register the claim", "RE", pet_schema)
    assert report.items == ()
    assert report.error_count == 1
    assert report.error_lines[0].reason == "bad field count"
    assert report.error_lines[0].line_number == 1


def test_parse_fact_section_then_items_then_unknown(pet_schema):
    raw = "\n".join([
        "Facts:",
        "- the clerk handles the order",
        "- nothing else happens",
        "",
        "activity|registers",
        "actor|the clerk",
        "activity data|the order",
        "gateway_xyz|if",
    ])
    report = parse(raw, "MD", pet_schema)
    assert len(report.items) == 3
    assert report.error_count == 1
    assert report.error_lines[0].reason == "unknown type"
    assert report.ignored_line_count == 4
    total = len(raw.splitlines())
    assert len(report.items) + report.error_count + report.ignored_line_count == total


def test_parse_type_canonicalization(pet_schema):
    report = parse("ACTIVITY_DATA|the file", "MD", pet_schema)
    assert report.items == (ParsedMention("Activity Data", "the file"),)
    report = parse("Actor_Performer|registers|the clerk", "RE", pet_schema)
    assert report.items[0].relation_type == "actor performer"


def test_parse_er_lines(pet_schema):
    report = parse("entity|the clerk|he\ncluster|a|b\nentity|alone", "ER", pet_schema)
    assert report.items == (
        ParsedCluster(("the clerk", "he")),
        ParsedCluster(("alone",)),
    )
    assert report.error_count == 1
    assert report.error_lines[0].reason == "unknown type"


def test_parse_er_empty_member(pet_schema):
    report = parse("entity|the clerk|", "ER", pet_schema)
    assert report.items == ()
    assert report.error_lines[0].reason == "empty field"


def test_parse_ce_lines(decon_schema):
    raw = "\n".join([
        "precedence||receive payment|ship order",
        "response|not|issue refund|charge card",
        "init||open case",
        "init||open case|close case",
        "precedence||only one",
        "precedence|maybe|a|b",
        "precedence||a|",
        "frobnicate||a|b",
    ])
    report = parse(raw, "CE", decon_schema)
    assert report.items == (
        ParsedConstraint("precedence", False, ("receive payment", "ship order")),
        ParsedConstraint("response", True, ("issue refund", "charge card")),
        ParsedConstraint("init", False, ("open case",)),
    )
    reasons = [e.reason for e in report.error_lines]
    assert reasons == [
        "bad field count",
        "bad field count",
        "bad negation flag",
        "empty field",
        "unknown type",
    ]


def readme_grammar_examples() -> list:
    """(task, example) per line of README's *Output grammar* block."""
    text = (DATA.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("### Output grammar", 1)[1].split("```", 2)[1]
    rows = [re.split(r" {2,}", line) for line in block.strip().splitlines()]
    return [(task, example) for task, _, example in rows]


@pytest.mark.parametrize("task, example", readme_grammar_examples())
def test_readme_grammar_example_parses_to_one_item(task, example, pet_schema,
                                                   decon_schema):
    schema = decon_schema if task == "CE" else pet_schema
    report = parse(example, task, schema)
    assert (len(report.items), report.error_count) == (1, 0), report


def test_parse_preamble_ignored_when_items_exist(pet_schema):
    raw = "Sure, here are the mentions you asked for.\n\nactivity|registers"
    report = parse(raw, "MD", pet_schema)
    assert len(report.items) == 1
    assert report.error_count == 0
    assert report.ignored_line_count == 2


def test_parse_no_conforming_line_all_errors(pet_schema):
    raw = "I could not find any process elements.\nSorry about that."
    report = parse(raw, "MD", pet_schema)
    assert report.items == ()
    assert report.error_count == 2


def test_parse_reflection_section_ignored(pet_schema):
    raw = "activity|registers\nReflection:\nI am fairly confident overall."
    report = parse(raw, "MD", pet_schema)
    assert len(report.items) == 1
    assert report.error_count == 0
    assert report.ignored_line_count == 2


def test_parse_empty_string(pet_schema):
    report = parse("", "MD", pet_schema)
    assert report.items == () and report.error_count == 0
    assert report.ignored_line_count == 0


@given(st.text(max_size=400))
def test_parse_total_and_accounting(raw):
    schema = corpus.load_schema("pet")
    for task in ("MD", "ER", "RE", "CE"):
        report = parse(raw, task, schema)
        total = len(raw.splitlines())
        assert len(report.items) + report.error_count + report.ignored_line_count == total
        assert report.error_count == len(report.error_lines)


# ---------------------------------------------------------------------------
# ground

def ground(parsed: ParsedMention, doc: Document, used: set):
    """Ground one surface to the first unused matching token window.

    ``used`` is a set of token-index spans; the grounded span is added.
    """
    hit = WindowIndex(doc).ground(parsed.mention_type, parsed.surface,
                                  {i for span in used for i in span})
    if hit is not None:
        used.add(hit.token_indices)
    return hit


def test_ground_case_fold_match():
    doc = make_doc(["A", "claims", "officer", "registers", "."])
    used = set()
    hit = ground(ParsedMention("Actor", "a claims officer"), doc, used)
    assert hit.token_indices == (0, 1, 2)
    assert hit.matched_surface == "A claims officer"
    assert used == {(0, 1, 2)}


def test_ground_repeated_surface_uses_next_window():
    doc = make_doc(["he", "pays", "then", "he", "leaves"])
    used = set()
    first = ground(ParsedMention("Actor", "he"), doc, used)
    second = ground(ParsedMention("Actor", "he"), doc, used)
    assert first.token_indices == (0,)
    assert second.token_indices == (3,)
    third = ground(ParsedMention("Actor", "he"), doc, used)
    assert third is None


def test_ground_absent_surface():
    doc = make_doc(["nothing", "relevant", "here"])
    assert ground(ParsedMention("Activity", "approves the claim"), doc, set()) is None


def test_ground_strips_edge_punctuation():
    doc = make_doc(["sent", "back", "."])
    hit = ground(ParsedMention("Activity", "sent back."), doc, set())
    assert hit.token_indices == (0, 1)


def test_ground_rejects_punctuation_edges():
    doc = make_doc(["checks", ",", "then", "files"])
    hit = ground(ParsedMention("Activity", "checks ,"), doc, set())
    assert hit.token_indices == (0,)


def test_ground_never_overlaps_used():
    doc = make_doc(["the", "claim", "is", "valid"])
    used = {(1, 2)}
    hit = ground(ParsedMention("X", "the claim"), doc, used)
    assert hit is None  # only window overlaps a used span


def test_ground_report_partition(pet, pet_schema):
    doc = pet.document("doc-1.1")
    raw = "activity|receives\nactivity|does not exist"
    grounded, ungrounded = ground_report(parse(raw, "MD", pet_schema), doc)
    assert len(grounded) == 1 and len(ungrounded) == 1
    assert ungrounded[0].surface == "does not exist"


# ---------------------------------------------------------------------------
# the window index against the left-to-right scan it replaced

def scan_ground(parsed, doc, used):
    """Reference grounding: rescan every token window for each surface."""
    target = normalize_phrase(parsed.surface)
    if not target:
        return None
    width = len(target.split())
    words = [t.text for t in doc.tokens]
    for start in range(len(words) - width + 1):
        window = words[start:start + width]
        if not any(ch.isalnum() for ch in window[0]) or \
                not any(ch.isalnum() for ch in window[-1]):
            continue
        if normalize_phrase(" ".join(window)) != target:
            continue
        span = tuple(range(start, start + width))
        if any(set(span) & set(u) for u in used):
            continue
        used.add(span)
        return GroundedMention(parsed.mention_type, span, " ".join(window))
    return None


def scan_ground_report(report, doc):
    used: set = set()
    grounded, ungrounded = [], []
    for item in report.items:
        if isinstance(item, ParsedMention):
            hit = scan_ground(item, doc, used)
            if hit is None:
                ungrounded.append(item)
            else:
                grounded.append(hit)
    return grounded, ungrounded


def scan_ground_clusters(report, doc):
    used: set = set()
    clusters, ungrounded = [], []
    for item in report.items:
        if isinstance(item, ParsedCluster):
            members = []
            for surface in item.surfaces:
                hit = scan_ground(ParsedMention("entity", surface), doc, used)
                if hit is None:
                    ungrounded.append(surface)
                else:
                    members.append(hit)
            clusters.append(tuple(members))
    return clusters, ungrounded


def scan_ground_relations(report, doc):
    out = []
    for item in report.items:
        if isinstance(item, ParsedRelation):
            used: set = set()
            src = scan_ground(ParsedMention("", item.source_surface), doc, used)
            tgt = scan_ground(ParsedMention("", item.target_surface), doc, used)
            out.append(GroundedRelation(
                item.relation_type,
                None if src is None else src.token_indices, item.source_surface,
                None if tgt is None else tgt.token_indices, item.target_surface,
            ))
    return out


# punctuation-only tokens, edge punctuation, mixed case, casefold
# expansions (ß folds to ss, ﬁ to fi, İ to i plus a combining dot),
# final and non-final sigma, and whitespace inside a token or as one
# (tab, no-break space, ideographic space)
WORDS = ["the", "The", "THE", "claim", "Claim.", "(claim", "claim)", ",", ".",
         "--", "...", "straße", "STRASSE", "strasse", "ß", "SS", "a b",
         "new\tline", "x", "X!", "", " ", "he", "Σ", "ς", "\xa0", "İ", "ﬁ",
         "\u3000"]


@st.composite
def grounding_cases(draw):
    words = draw(st.lists(st.sampled_from(WORDS), max_size=24))

    def surface():
        if words and draw(st.booleans()):
            start = draw(st.integers(0, len(words) - 1))
            text = " ".join(words[start:start + draw(st.integers(1, 4))])
            return draw(st.sampled_from(
                [text, text.upper(), text.casefold(), f"{text}.", f" ({text}) "]
            ))
        # includes empty and punctuation-only surfaces
        return draw(st.text(alphabet="abAB ß.,-(", max_size=8))

    pool = [surface() for _ in range(draw(st.integers(1, 6)))]
    pick = st.sampled_from(pool)  # drawing from a small pool repeats surfaces
    mentions = draw(st.lists(pick, max_size=12))
    clusters = draw(st.lists(st.lists(pick, min_size=1, max_size=4), max_size=5))
    relations = draw(st.lists(st.tuples(pick, pick), max_size=6))
    items = tuple(
        [ParsedMention("Activity", s) for s in mentions]
        + [ParsedCluster(tuple(c)) for c in clusters]
        + [ParsedRelation("flow", a, b) for a, b in relations]
    )
    used = set()
    if words:
        for _ in range(draw(st.integers(0, 3))):
            start = draw(st.integers(0, len(words) - 1))
            width = draw(st.integers(1, 3))
            used.add(tuple(range(start, min(start + width, len(words)))))
    return make_doc(words), ParseReport(items, (), 0), pool, used


@settings(max_examples=300, deadline=None)
@given(case=grounding_cases())
def test_window_index_grounds_like_the_scan(case):
    doc, report, pool, used = case
    assert ground_report(report, doc) == scan_ground_report(report, doc)
    assert ground_clusters(report, doc) == scan_ground_clusters(report, doc)
    assert ground_relations(report, doc) == scan_ground_relations(report, doc)
    indexed, scanned = set(used), set(used)
    for surface in pool:
        item = ParsedMention("Actor", surface)
        assert ground(item, doc, indexed) == scan_ground(item, doc, scanned)
        assert indexed == scanned


@settings(max_examples=300, deadline=None)
@given(case=grounding_cases())
def test_ground_document_grounds_every_kind_like_the_scans(case):
    # the generated reports mix all three kinds, as a predictions file for
    # generate-bpmn does; each field is one scan oracle's answer
    doc, report, _, _ = case
    grounding = ground_document(report, doc)
    assert (grounding.mentions, grounding.ungrounded_mentions) == \
        scan_ground_report(report, doc)
    assert (grounding.clusters, grounding.ungrounded_surfaces) == \
        scan_ground_clusters(report, doc)
    assert grounding.relations == scan_ground_relations(report, doc)


def test_is_wordlike_matches_isalnum_on_every_code_point():
    mismatched = [hex(c) for c in range(0x110000)
                  if (parser._is_wordlike(chr(c)) is not None) != chr(c).isalnum()]
    assert mismatched == []
    for text in ("", "--", "_", "a_", "(x)", "\u3000", " 1 ", "ab", "a.b", "ß"):
        assert (parser._is_wordlike(text) is not None) == any(ch.isalnum() for ch in text)
        assert parser._wordlike(text) == any(ch.isalnum() for ch in text)


def concatenated(documents, k):
    """One document holding ``documents`` k times over, mentions shifted."""
    tokens, mentions = [], []
    for copy in range(k):
        for doc in documents:
            base = len(tokens)
            tokens.extend(Token(t.text, base + t.index, 0) for t in doc.tokens)
            mentions.extend(
                Mention(f"c{copy}-{doc.id}-{m.id}", m.mention_type,
                        tuple(base + i for i in m.token_indices))
                for m in doc.mentions
            )
    return Document(id=f"pet-{k}x", raw_text=" ".join(t.text for t in tokens),
                    tokens=tuple(tokens), mentions=tuple(mentions))


def test_grounding_cost_grows_linearly(pet, pet_schema, monkeypatch):
    # counts the occurrences WindowIndex verifies: each one that passes
    # the one-character word-edge tests takes one bisect_right call
    verified = [0]

    def counted(offsets, at):
        verified[0] += 1
        return bisect_right(offsets, at)

    monkeypatch.setattr(parser, "bisect_right", counted)
    counts = []
    for k in (1, 2):
        doc = concatenated(pet.documents, k)
        report = parse("\n".join(render_gold(doc, "MD")), "MD", pet_schema)
        verified[0] = 0
        grounded, ungrounded = ground_report(report, doc)
        assert len(grounded) == len(doc.mentions) and not ungrounded
        counts.append(verified[0])
    assert counts[0] > 0 and counts[1] <= 2.2 * counts[0], counts


def test_grounding_memory_does_not_grow_with_distinct_widths(pet, pet_schema):
    # one junk surface of each width from 1 to 200: an index holding a
    # table of windows per width asked about peaks near 100 MB here
    doc = concatenated(pet.documents, 2)
    raw = "\n".join("activity|" + " ".join(["zq"] * width) for width in range(1, 201))
    report = parse(raw, "MD", pet_schema)
    tracemalloc.start()
    try:
        grounded, ungrounded = ground_report(report, doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grounded == [] and len(ungrounded) == 200
    assert peak < 10 * 2**20, peak


def test_grounding_normalizes_each_distinct_surface_once(pet, pet_schema, monkeypatch):
    calls = Counter()

    def counted(text):
        calls[text] += 1
        return normalize_phrase(text)

    monkeypatch.setattr(parser, "normalize_phrase", counted)
    doc = concatenated(pet.documents, 2)
    report = parse("\n".join(render_gold(doc, "MD")), "MD", pet_schema)
    grounded, ungrounded = ground_report(report, doc)
    assert len(grounded) == len(doc.mentions) and not ungrounded
    assert set(calls) <= {item.surface for item in report.items}
    assert max(calls.values()) == 1


# ---------------------------------------------------------------------------
# round-trip law over every shipped document

def all_datasets():
    yield corpus.load_pet(DATA / "pet.jsonl"), ("MD", "ER", "RE")
    yield corpus.load_canonical(DATA / "decon.jsonl"), ("MD", "CE")
    yield corpus.load_canonical(DATA / "atdp.jsonl"), ("MD", "CE")


def test_gold_round_trip_md():
    for ds, tasks in all_datasets():
        for doc in ds.documents:
            raw = "\n".join(render_gold(doc, "MD"))
            report = parse(raw, "MD", ds.schema)
            assert report.error_count == 0, (doc.id, report.error_lines)
            grounded, ungrounded = ground_report(report, doc)
            assert not ungrounded, (doc.id, ungrounded)
            got = {(g.mention_type, g.token_indices) for g in grounded}
            want = {(m.mention_type, m.token_indices) for m in doc.mentions}
            assert got == want, doc.id


def test_gold_round_trip_er():
    ds = corpus.load_pet(DATA / "pet.jsonl")
    for doc in ds.documents:
        raw = "\n".join(render_gold(doc, "ER"))
        report = parse(raw, "ER", ds.schema)
        assert report.error_count == 0, doc.id
        clusters, ungrounded = ground_clusters(report, doc)
        assert not ungrounded, doc.id
        got = {frozenset(g.token_indices for g in members) for members in clusters}
        mmap = doc.mention_map()
        clustered = {mid for e in doc.entities for mid in e.mention_ids}
        want = {
            frozenset(mmap[mid].token_indices for mid in e.mention_ids)
            for e in doc.entities
        }
        want |= {
            frozenset([m.token_indices]) for m in doc.mentions if m.id not in clustered
        }
        assert got == want, doc.id


def test_gold_round_trip_re():
    ds = corpus.load_pet(DATA / "pet.jsonl")
    for doc in ds.documents:
        raw = "\n".join(render_gold(doc, "RE"))
        report = parse(raw, "RE", ds.schema)
        assert report.error_count == 0, doc.id
        grounded = ground_relations(report, doc)
        assert all(g.source_indices and g.target_indices for g in grounded), doc.id
        got = {(g.relation_type, g.source_indices, g.target_indices) for g in grounded}
        mmap = doc.mention_map()
        want = {
            (
                r.relation_type,
                mmap[r.source_mention_id].token_indices,
                mmap[r.target_mention_id].token_indices,
            )
            for r in doc.relations
        }
        assert got == want, doc.id


def test_gold_round_trip_ce():
    for ds, tasks in all_datasets():
        if "CE" not in tasks:
            continue
        for doc in ds.documents:
            raw = "\n".join(render_gold(doc, "CE"))
            report = parse(raw, "CE", ds.schema)
            assert report.error_count == 0, doc.id
            got = {
                (i.constraint_type, i.negated, i.actions) for i in report.items
            }
            want = {
                (
                    c.constraint_type,
                    c.negated,
                    (c.first_action,) if c.second_action is None
                    else (c.first_action, c.second_action),
                )
                for c in doc.constraints
            }
            assert got == want, doc.id


# ---------------------------------------------------------------------------
# predictions-record items

_words = st.text(max_size=12)
_word_tuples = st.lists(_words, max_size=4).map(tuple)
PARSED_ITEMS = st.one_of(
    st.builds(ParsedMention, _words, _words),
    st.builds(ParsedCluster, _word_tuples),
    st.builds(ParsedRelation, _words, _words, _words),
    st.builds(ParsedConstraint, _words, st.booleans(), _word_tuples),
)


@given(PARSED_ITEMS)
def test_item_record_round_trips_through_json(item):
    record = json.loads(json.dumps(item_to_record(item)))
    assert set(record) == {"kind", *ITEM_KINDS[record["kind"]].shape}
    assert ITEM_KINDS[record["kind"]].cls is type(item)
    back = item_from_record(record)
    assert type(back) is type(item) and back == item
