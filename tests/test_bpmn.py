"""BPMN compiler tests.

The claims-processing document doc-3.3 is the worked example: every
count below was tallied by hand from its annotations before the
compiler existed.  Hand tally: 2 lanes, 5 tasks, 1 merged XOR
gateway, 3 data objects, 6 sequence flows, 2 message flows, exactly
one condition label, 4 input data associations, and the annotation
gap on "sent back" (no performer) pulls that task into the customer
lane via the nearest-left rule.
"""

import dataclasses
import hashlib
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procex import corpus
from procex.bpmn import (
    AND,
    DATA,
    END,
    START,
    TASK,
    XOR,
    DataAssociation,
    Lane,
    MessageFlow,
    Node,
    ProcessGraph,
    SequenceFlow,
    _escape,
    _nearest_left_index,
    _quoteattr,
    _role_groups,
    build_vertices,
    compile_document,
    consolidate,
    layout,
    parse_bpmn,
    serialize_bpmn,
    validate_graph,
)
from procex.corpus import Document, Entity, Mention, Relation, Token

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def pet_schema():
    return corpus.load_schema("pet")


@pytest.fixture(scope="module")
def doc33(pet_schema):
    ds = corpus.load_canonical(DATA_DIR / "fixtures" / "doc33.json")
    assert len(ds.documents) == 1
    return ds.documents[0]


@pytest.fixture(scope="module")
def compiled33(doc33, pet_schema):
    return compile_document(doc33, pet_schema)


def make_doc(doc_id, sentences, mentions, entities=(), relations=()):
    """Tiny inline document builder for synthetic cases."""
    tokens = []
    for s_idx, words in enumerate(sentences):
        for w in words.split():
            tokens.append(Token(w, len(tokens), s_idx))
    return Document(
        id=doc_id,
        raw_text=" ".join(t.text for t in tokens),
        tokens=tuple(tokens),
        mentions=tuple(Mention(mid, mtype, tuple(span)) for mid, mtype, span in mentions),
        entities=tuple(Entity(eid, frozenset(ids)) for eid, ids in entities),
        relations=tuple(Relation(rid, rtype, s, t) for rid, rtype, s, t in relations),
    )


def nearest_left_actor(doc, schema, token_index):
    """Closest actor mention fully left of token_index, as compile sees it."""
    return _nearest_left_index(_role_groups(doc, schema)[0]["actor"])(token_index)


# ---------------------------------------------------------------------------
# consolidation

def test_nearest_left_actor_prefers_closest_then_later_start(pet_schema):
    doc = make_doc(
        "syn-near",
        ["w0 w1 w2 w3 w4 w5 w6", "w7 w8 w9"],
        [
            ("a1", "Actor", (4, 5)),
            ("a2", "Actor", (5,)),
            ("t1", "Activity", (6,)),
        ],
    )
    picked = nearest_left_actor(doc, pet_schema, 6)
    assert picked.id == "a2"  # same last token, later start wins
    doc2 = make_doc(
        "syn-near2",
        ["w" + " w".join(str(i) for i in range(35))],
        [
            ("a1", "Actor", (5,)),
            ("a2", "Actor", (30,)),
            ("t1", "Activity", (31,)),
        ],
    )
    assert nearest_left_actor(doc2, pet_schema, 31).id == "a2"
    assert nearest_left_actor(doc2, pet_schema, 3) is None


def scan_nearest_left(mentions, token_index):
    """The nearest-left rule as a scan over every candidate (the oracle)."""
    best = None
    for m in mentions:
        if m.token_indices[-1] >= token_index:
            continue
        if best is None or (
            (m.token_indices[-1], m.token_indices[0])
            > (best.token_indices[-1], best.token_indices[0])
        ):
            best = m
    return best


# (first, last) token of each candidate: overlapping spans and shared
# last tokens are frequent on so few tokens
CANDIDATE_SPANS = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 3)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
    max_size=12,
)


@settings(max_examples=400, deadline=None)
@given(spans=CANDIDATE_SPANS)
@example(spans=[])
@example(spans=[(4, 5), (5, 5), (3, 5), (5, 5)])
@example(spans=[(2, 4), (2, 4)])
def test_nearest_left_index_matches_the_scan(spans):
    mentions = [
        Mention(f"m{i}", "Actor", tuple(range(first, last + 1)))
        for i, (first, last) in enumerate(spans)
    ]
    nearest = _nearest_left_index(mentions)
    # queries before the first and after the last candidate, and at every
    # token in between
    for token_index in range(-1, 18):
        assert nearest(token_index) is scan_nearest_left(mentions, token_index)


def test_nearest_left_lookups_grow_linearly(pet_schema):
    # Mention span reads during compile_document: a scan over every
    # candidate per lookup made them grow with activities x actors.
    from test_parser import concatenated

    pet = corpus.load_pet(DATA_DIR / "pet.jsonl")
    reads = [0]

    class CountedMention(Mention):
        def __getattribute__(self, name):
            if name == "token_indices":
                reads[0] += 1
            return object.__getattribute__(self, name)

    counts = []
    for k in (1, 4):
        doc = concatenated(pet.documents, k)
        doc = Document(doc.id, doc.raw_text, doc.tokens, tuple(
            CountedMention(m.id, m.mention_type, m.token_indices) for m in doc.mentions
        ))
        reads[0] = 0
        compile_document(doc, pet_schema)
        counts.append(reads[0])
    assert counts[1] <= 4.4 * counts[0], counts


def test_consolidate_attaches_condition_to_nearest_preceding_gateway(pet_schema):
    doc = make_doc(
        "syn-cond",
        ["If the form is valid , approve ."],
        [
            ("g1", "XOR Gateway", (0,)),
            ("c1", "Condition Specification", (1, 2, 3, 4)),
            ("t1", "Activity", (6,)),
        ],
        relations=[("r0", "flow", "c1", "t1")],
    )
    out = consolidate(doc, pet_schema)
    added = [r for r in out.relations if r.relation_type == "condition specification"]
    assert len(added) == 1
    assert (added[0].source_mention_id, added[0].target_mention_id) == ("g1", "c1")


def test_consolidate_keeps_existing_condition_attachment(pet_schema):
    doc = make_doc(
        "syn-cond2",
        ["If the form is valid , approve ."],
        [
            ("g1", "XOR Gateway", (0,)),
            ("c1", "Condition Specification", (1, 2, 3, 4)),
        ],
        relations=[("r0", "condition specification", "g1", "c1")],
    )
    out = consolidate(doc, pet_schema)
    attachments = [
        r for r in out.relations if r.relation_type == "condition specification"
    ]
    assert [r.id for r in attachments] == ["r0"]


def test_consolidate_merges_same_sentence_gateways_without_links(pet_schema):
    doc = make_doc(
        "syn-gw",
        ["Either ship or cancel .", "Later , either retry ."],
        [
            ("g1", "XOR Gateway", (0,)),
            ("g2", "XOR Gateway", (2,)),
            ("g3", "XOR Gateway", (7,)),
        ],
    )
    out = consolidate(doc, pet_schema)
    groups = sorted(sorted(e.mention_ids) for e in out.entities)
    assert groups == [["g1", "g2"]]  # g3 sits alone in its sentence


def test_consolidate_same_sentence_fallback_disabled_by_explicit_links(pet_schema):
    doc = make_doc(
        "syn-gw2",
        ["Either ship or cancel now ."],
        [
            ("g1", "XOR Gateway", (0,)),
            ("g2", "XOR Gateway", (2,)),
            ("g3", "XOR Gateway", (4,)),
        ],
        relations=[("r0", "same gateway", "g1", "g2")],
    )
    out = consolidate(doc, pet_schema)
    groups = sorted(sorted(e.mention_ids) for e in out.entities)
    assert groups == [["g1", "g2"]]


def test_consolidate_never_merges_an_xor_with_an_and_gateway(pet_schema):
    doc = make_doc(
        "syn-gw3",
        ["Either ship or pack and label ."],
        [
            ("g1", "XOR Gateway", (0,)),
            ("g2", "AND Gateway", (4,)),
        ],
    )
    out = consolidate(doc, pet_schema)
    assert out.entities == ()
    vertices = build_vertices(out, *_role_groups(out, pet_schema))
    kinds = sorted(n.kind for n in vertices.nodes if n.kind in (XOR, AND))
    assert kinds == sorted([XOR, AND])


def test_consolidate_drops_entities_inside_a_new_gateway_group(pet_schema):
    doc = make_doc(
        "syn-gw4",
        ["Either ship or cancel or hold ."],
        [
            ("g1", "XOR Gateway", (0,)),
            ("g2", "XOR Gateway", (2,)),
            ("g3", "XOR Gateway", (4,)),
            ("t1", "Activity", (1,)),
        ],
        entities=[("e0", ()), ("e1", ("g1", "g2")), ("e2", ("t1",))],
        relations=[("r0", "same gateway", "g2", "g3")],
    )
    out = consolidate(doc, pet_schema)
    # the empty entity lies inside every group and the pair inside the
    # triple; the activity's entity stays
    assert [(e.id, sorted(e.mention_ids)) for e in out.entities] == [
        ("e2", ["t1"]), ("e-gw-0", ["g1", "g2", "g3"]),
    ]
    # without a new group, an empty entity stays
    lone = make_doc("syn-gw5", ["Either ship ."], [("g1", "XOR Gateway", (0,))],
                    entities=[("e0", ())])
    assert consolidate(lone, pet_schema).entities == lone.entities


def test_consolidate_completes_missing_performer(pet_schema):
    doc = make_doc(
        "syn-perf",
        ["The clerk files it .", "Then archives it ."],
        [
            ("a1", "Actor", (0, 1)),
            ("t1", "Activity", (2,)),
            ("t2", "Activity", (6,)),
        ],
        relations=[("r0", "actor performer", "t1", "a1")],
    )
    out = consolidate(doc, pet_schema)
    performers = [r for r in out.relations if r.relation_type == "actor performer"]
    assert len(performers) == 2
    added = [r for r in performers if r.id != "r0"][0]
    assert (added.source_mention_id, added.target_mention_id) == ("t2", "a1")


def test_consolidate_is_idempotent(doc33, pet_schema):
    once = consolidate(doc33, pet_schema)
    twice = consolidate(once, pet_schema)
    assert once == twice
    assert len(once.relations) > len(doc33.relations)


# ---------------------------------------------------------------------------
# the worked example

def test_doc33_element_counts(compiled33):
    g = compiled33
    kinds = {}
    for n in g.nodes:
        kinds[n.kind] = kinds.get(n.kind, 0) + 1
    assert len(g.lanes) == 2
    assert kinds[TASK] == 5
    assert kinds[XOR] == 1
    assert kinds.get(AND, 0) == 0
    assert kinds[DATA] == 3
    assert kinds[START] == 1
    assert kinds[END] == 1
    assert len(g.sequence_flows) == 6
    assert len(g.message_flows) == 2
    labeled = [f for f in g.sequence_flows if f.condition_label is not None]
    assert [f.condition_label for f in labeled] == ["the form is valid"]
    assert len(g.data_associations) == 4
    assert g.warnings == ()


def test_doc33_lanes_and_labels(compiled33):
    g = compiled33
    assert [lane.label for lane in g.lanes] == ["a claims officer", "the customer"]
    tasks = [n.label for n in g.nodes if n.kind == TASK]
    assert tasks == [
        "registers the claim",
        "examines the file",
        "approves a payment",
        "informs",
        "sent back the claim",
    ]
    data = sorted(n.label for n in g.nodes if n.kind == DATA)
    assert data == ["a payment", "the claim", "the file"]
    gateway = [n for n in g.nodes if n.kind == XOR][0]
    assert gateway.label == "If"
    officer = g.lanes[0].id
    assert gateway.lane_id == officer
    for n in g.nodes:
        if n.kind in (START, END):
            assert n.lane_id == officer


def test_doc33_wrong_lane_reproduced(compiled33):
    # "sent back" has no annotated performer; the nearest actor on its
    # left is "the customer", so the task lands in the customer lane
    g = compiled33
    sent_back = [n for n in g.nodes if n.label == "sent back the claim"][0]
    customer = [lane for lane in g.lanes if lane.label == "the customer"][0]
    assert sent_back.lane_id == customer.id
    others = [
        n for n in g.nodes
        if n.kind == TASK and n.label != "sent back the claim"
    ]
    assert all(n.lane_id == g.lanes[0].id for n in others)


def test_doc33_flow_topology(compiled33):
    g = compiled33
    label_of = {n.id: (n.kind, n.label) for n in g.nodes}

    def ends(flow):
        return (label_of[flow.source], label_of[flow.target])

    seq = {ends(f) for f in g.sequence_flows}
    assert ((START, ""), (TASK, "registers the claim")) in seq
    assert ((TASK, "registers the claim"), (TASK, "examines the file")) in seq
    assert ((TASK, "examines the file"), (XOR, "If")) in seq
    assert ((XOR, "If"), (TASK, "approves a payment")) in seq
    assert ((XOR, "If"), (TASK, "informs")) in seq
    assert ((TASK, "approves a payment"), (END, "")) in seq
    msg = {ends(f) for f in g.message_flows}
    assert msg == {
        ((TASK, "informs"), (TASK, "sent back the claim")),
        ((TASK, "sent back the claim"), (END, "")),
    }
    conditional = [f for f in g.sequence_flows if f.condition_label]
    assert label_of[conditional[0].target] == (TASK, "approves a payment")


def test_doc33_validates_clean(compiled33):
    assert validate_graph(compiled33) == []


# ---------------------------------------------------------------------------
# degenerate and adversarial shapes

def test_document_without_actors_gets_unassigned_lane(pet_schema):
    doc = make_doc(
        "syn-noactor",
        ["Register the order , then ship it ."],
        [
            ("t1", "Activity", (0,)),
            ("t2", "Activity", (5,)),
        ],
        relations=[("r0", "flow", "t1", "t2")],
    )
    g = compile_document(doc, pet_schema)
    assert [lane.label for lane in g.lanes] == ["unassigned"]
    assert all(
        n.lane_id == g.lanes[0].id for n in g.nodes if n.kind != DATA
    )
    assert validate_graph(g) == []
    assert len(g.sequence_flows) == 3  # start->t1, t1->t2, t2->end


def test_empty_document_compiles_to_events_only(pet_schema):
    doc = make_doc("syn-empty", ["Nothing happens here ."], [])
    g = compile_document(doc, pet_schema)
    assert [lane.label for lane in g.lanes] == ["unassigned"]
    assert sorted(n.kind for n in g.nodes) == sorted([START, END])
    assert g.sequence_flows == ()
    assert g.message_flows == ()
    assert validate_graph(g) == []


def test_cross_lane_conditional_becomes_unlabeled_message_flow(pet_schema):
    doc = make_doc(
        "syn-cross",
        ["A clerk checks the form .", "If it is broken , the manager repairs it ."],
        [
            ("a1", "Actor", (0, 1)),
            ("t1", "Activity", (2,)),
            ("g1", "XOR Gateway", (6,)),
            ("c1", "Condition Specification", (7, 8, 9)),
            ("a2", "Actor", (11, 12)),
            ("t2", "Activity", (13,)),
        ],
        relations=[
            ("r0", "actor performer", "t1", "a1"),
            ("r1", "actor performer", "t2", "a2"),
            ("r2", "flow", "t1", "g1"),
            ("r3", "flow", "g1", "c1"),
            ("r4", "flow", "c1", "t2"),
        ],
    )
    g = compile_document(doc, pet_schema)
    assert len(g.lanes) == 2
    assert all(f.condition_label is None for f in g.sequence_flows)
    kinds = {n.id: n.kind for n in g.nodes}
    crossing = [
        f for f in g.message_flows
        if kinds[f.source] == XOR and kinds[f.target] == TASK
    ]
    assert len(crossing) == 1
    assert any("dropped" in w for w in g.warnings)


def test_condition_with_attachment_but_no_incoming_flow(pet_schema):
    doc = make_doc(
        "syn-attach",
        ["If stock is low , reorder ."],
        [
            ("g1", "XOR Gateway", (0,)),
            ("c1", "Condition Specification", (1, 2, 3)),
            ("t1", "Activity", (5,)),
        ],
        relations=[("r0", "flow", "c1", "t1")],
    )
    g = compile_document(doc, pet_schema)
    flows = [f for f in g.sequence_flows if f.condition_label == "stock is low"]
    assert len(flows) == 1
    kinds = {n.id: n.kind for n in g.nodes}
    assert kinds[flows[0].source] == XOR
    assert kinds[flows[0].target] == TASK


def test_dangling_flow_endpoint_warns_and_skips(pet_schema):
    doc = make_doc(
        "syn-dangle",
        ["The clerk files the report ."],
        [
            ("a1", "Actor", (0, 1)),
            ("t1", "Activity", (2,)),
            ("d1", "Activity Data", (3, 4)),
        ],
        relations=[
            ("r0", "actor performer", "t1", "a1"),
            ("r1", "flow", "t1", "d1"),
        ],
    )
    g = compile_document(doc, pet_schema)
    assert any("skipped link r1" in w for w in g.warnings)
    assert all(
        {f.source, f.target} <= {n.id for n in g.nodes if n.kind != DATA}
        for f in g.sequence_flows
    )


def test_task_label_not_doubled_when_object_already_present(pet_schema):
    doc = make_doc(
        "syn-label",
        ["The clerk signs the form ."],
        [
            ("a1", "Actor", (0, 1)),
            ("t1", "Activity", (2, 3, 4)),
            ("d1", "Activity Data", (3, 4)),
        ],
        relations=[
            ("r0", "actor performer", "t1", "a1"),
            ("r1", "uses", "t1", "d1"),
        ],
    )
    g = compile_document(doc, pet_schema)
    task = [n for n in g.nodes if n.kind == TASK][0]
    assert task.label == "signs the form"
    assert len(g.data_associations) == 1


_LANES = (Lane("lane_a", "A"), Lane("lane_b", "B"))
_NODES = (
    Node("s1", START, "", "lane_a"),
    Node("t1", TASK, "one", "lane_a"),
    Node("t2", TASK, "two", "lane_b"),
    Node("t3", TASK, "three", "lane_b"),
    Node("e1", END, "", "lane_a"),
    Node("d1", DATA, "form"),
)
VALID_GRAPH = ProcessGraph(
    lanes=_LANES,
    nodes=_NODES,
    sequence_flows=(SequenceFlow("f0", "t2", "t3"),),
    message_flows=(MessageFlow("m0", "t1", "t2"),),
    data_associations=(DataAssociation("a0", "d1", "t1"),),
)

# one broken graph per rule: the fields changed from VALID_GRAPH, and the
# exact messages validate_graph gives
GRAPH_RULES = {
    "lane violations": (
        {"sequence_flows": (SequenceFlow("f1", "t1", "t2"),),
         "message_flows": (MessageFlow("m1", "s1", "t1"),)},
        ["sequence flow f1 crosses lanes", "message flow m1 stays inside one lane"]),
    "duplicate node ids": (
        {"nodes": _NODES + (Node("t1", TASK, "again", "lane_a"),)},
        ["duplicate node ids"]),
    "unknown kind": (
        {"nodes": _NODES + (Node("x1", "subprocess", "", "lane_a"),)},
        ["node x1: unknown kind 'subprocess'"]),
    "data object in a lane": (
        {"nodes": _NODES + (Node("d2", DATA, "file", "lane_a"),)},
        ["data object d2 must not sit in a lane"]),
    "unresolved lane": (
        {"nodes": _NODES + (Node("t4", TASK, "four", "lane_z"),)},
        ["node t4: unresolved lane 'lane_z'"]),
    "unresolved sequence endpoint": (
        {"sequence_flows": (SequenceFlow("f1", "t1", "ghost"),)},
        ["sequence flow f1: unresolved endpoint"]),
    "unresolved message endpoint": (
        {"message_flows": (MessageFlow("m1", "ghost", "t2"),)},
        ["message flow m1: unresolved endpoint"]),
    "association from a non-data node": (
        {"data_associations": (DataAssociation("a1", "t2", "t1"),)},
        ["association a1: 't2' is not a data object"]),
    "association to a non-task node": (
        {"data_associations": (DataAssociation("a1", "d1", "e1"),)},
        ["association a1: 'e1' is not a task"]),
    "no start event": (
        {"nodes": _NODES[1:]},
        ["expected exactly one start event, found 0"]),
    "two start events": (
        {"nodes": _NODES + (Node("s2", START, "", "lane_b"),)},
        ["expected exactly one start event, found 2"]),
    "no end event": (
        {"nodes": tuple(n for n in _NODES if n.kind != END)},
        ["expected at least one end event"]),
    "label XML 1.0 does not allow": (
        {"lanes": (Lane("lane_a", "A\x01"), _LANES[1]),
         "nodes": _NODES + (Node("t4", TASK, "four\uffff", "lane_a"),),
         "sequence_flows": (SequenceFlow("f0", "t2", "t3", "yes\x0b"),)},
        ["lane lane_a: label holds U+0001, which XML 1.0 does not allow",
         "node t4: label holds U+FFFF, which XML 1.0 does not allow",
         "sequence flow f0: label holds U+000B, which XML 1.0 does not allow"]),
}


def test_validate_accepts_the_valid_graph():
    assert validate_graph(VALID_GRAPH) == []


@pytest.mark.parametrize("rule", GRAPH_RULES)
def test_validate_reports_lane_violations(rule):
    changes, messages = GRAPH_RULES[rule]
    assert validate_graph(dataclasses.replace(VALID_GRAPH, **changes)) == messages


# ---------------------------------------------------------------------------
# layout

def test_layout_separates_same_lane_nodes(compiled33):
    model = layout(compiled33)
    by_lane = {}
    for n in compiled33.nodes:
        if n.kind == DATA:
            continue
        by_lane.setdefault(n.lane_id, []).append(model.positions[n.id])
    for boxes in by_lane.values():
        boxes.sort()
        for (x1, _, w1, _), (x2, _, _, _) in zip(boxes, boxes[1:]):
            assert x1 + w1 <= x2
    # flow order reads left to right
    node = {n.id: n for n in compiled33.nodes}
    for f in compiled33.sequence_flows:
        assert model.positions[f.source][0] < model.positions[f.target][0]


def test_layout_survives_cycles(pet_schema):
    doc = make_doc(
        "syn-cycle",
        ["Check then rework then check again ."],
        [
            ("t1", "Activity", (0,)),
            ("t2", "Activity", (2,)),
        ],
        relations=[
            ("r0", "flow", "t1", "t2"),
            ("r1", "flow", "t2", "t1"),
        ],
    )
    g = compile_document(doc, pet_schema)
    model = layout(g)
    xs = [model.positions[n.id][0] for n in g.nodes if n.kind != DATA]
    assert len(set(xs)) == len(xs)


# ---------------------------------------------------------------------------
# serialization

def test_serialize_parse_round_trip(compiled33):
    model = layout(compiled33)
    text = serialize_bpmn(model)
    reread = parse_bpmn(text)
    assert reread.graph == compiled33
    assert serialize_bpmn(reread) == text
    assert reread.positions == model.positions
    assert reread.lane_extents == model.lane_extents


def test_serialize_declares_bpmn_namespaces(compiled33):
    text = serialize_bpmn(layout(compiled33))
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert "http://www.omg.org/spec/BPMN/20100524/MODEL" in text
    assert "http://www.omg.org/spec/BPMN/20100524/DI" in text
    assert "<bpmn:laneSet" in text
    assert "<bpmndi:BPMNShape" in text


def test_serialize_escapes_special_characters(pet_schema):
    doc = make_doc(
        "syn-escape",
        ['The clerk files A&B <fast> .'],
        [
            ("a1", "Actor", (0, 1)),
            ("t1", "Activity", (2,)),
            ("d1", "Activity Data", (3, 4)),
        ],
        relations=[
            ("r0", "actor performer", "t1", "a1"),
            ("r1", "uses", "t1", "d1"),
        ],
    )
    g = compile_document(doc, pet_schema)
    model = layout(g)
    text = serialize_bpmn(model)
    assert "A&amp;B" in text
    reread = parse_bpmn(text)
    assert reread.graph == g
    assert serialize_bpmn(reread) == text


def test_round_trip_empty_document(pet_schema):
    doc = make_doc("syn-empty2", ["Quiet ."], [])
    g = compile_document(doc, pet_schema)
    model = layout(g)
    text = serialize_bpmn(model)
    assert parse_bpmn(text).graph == g
    assert serialize_bpmn(parse_bpmn(text)) == text


def test_ids_stable_across_compiles(doc33, pet_schema):
    a = compile_document(doc33, pet_schema)
    b = compile_document(doc33, pet_schema)
    assert a == b
    assert [n.id for n in a.nodes] == [n.id for n in b.nodes]
    assert [f.id for f in a.sequence_flows] == [f.id for f in b.sequence_flows]


def test_whole_corpus_compiles_and_validates(pet_schema):
    ds = corpus.load_pet(DATA_DIR / "pet.jsonl")
    for doc in ds.documents:
        g = compile_document(doc, pet_schema)
        assert validate_graph(g) == [], doc.id
        model = layout(g)
        text = serialize_bpmn(model)
        reread = parse_bpmn(text)
        assert reread.graph == g, doc.id
        assert serialize_bpmn(reread) == text, doc.id


def test_gateway_node_survives_entity_id_equal_to_mention_id(pet_schema):
    # entity ids and mention ids are separate namespaces: an AND gateway
    # mention named like the XOR gateways' entity is a gateway of its own
    doc = make_doc(
        "syn-ids",
        ["Either ship or cancel .", "Meanwhile , in parallel , log it ."],
        [
            ("g1", "XOR Gateway", (0,)),
            ("g2", "XOR Gateway", (2,)),
            ("e0", "AND Gateway", (7, 8)),
        ],
        entities=[("e0", ("g1", "g2"))],
    )
    assert corpus.validate(doc, pet_schema) == []
    g = compile_document(doc, pet_schema)
    gateways = sorted((n.kind, n.label) for n in g.nodes if n.kind in (XOR, AND))
    assert gateways == [(AND, "in parallel"), (XOR, "Either")]
    assert validate_graph(g) == []


@st.composite
def valid_documents(draw, schema):
    """Any mention types over a few sentences, any schema relation between
    any two mentions, and random disjoint entity clusters."""
    sentences = draw(st.lists(st.integers(0, 3), min_size=1, max_size=12).map(sorted))
    tokens = tuple(Token(f"w{i}", i, sentence) for i, sentence in enumerate(sentences))
    n = len(tokens)
    spans = draw(st.lists(
        st.tuples(st.sampled_from(schema.mention_types), st.integers(0, n - 1),
                  st.integers(1, 3)).map(
            lambda t: (t[0], tuple(range(t[1], min(n, t[1] + t[2]))))
        ),
        max_size=10, unique=True,
    ))
    mentions = tuple(Mention(f"m{i}", mtype, span) for i, (mtype, span) in enumerate(spans))
    ends = st.integers(0, max(len(mentions) - 1, 0))
    relations = draw(st.lists(
        st.tuples(st.sampled_from(schema.relation_types), ends, ends),
        max_size=12 if mentions else 0,
    ))
    cluster_of = draw(st.lists(st.none() | st.integers(0, 3),
                               min_size=len(mentions), max_size=len(mentions)))
    clusters: dict = {}
    for m, cluster in zip(mentions, cluster_of):
        if cluster is not None:
            clusters.setdefault(cluster, set()).add(m.id)
    return Document(
        id="syn-any",
        raw_text=" ".join(t.text for t in tokens),
        tokens=tokens,
        mentions=mentions,
        entities=tuple(Entity(f"e{c}", frozenset(ids)) for c, ids in sorted(clusters.items())),
        relations=tuple(
            Relation(f"r{i}", rtype, mentions[s].id, mentions[t].id)
            for i, (rtype, s, t) in enumerate(relations)
        ),
    )


PET_SCHEMA = corpus.load_schema("pet")


@settings(max_examples=300, deadline=None)
@given(doc=valid_documents(PET_SCHEMA))
@example(doc=make_doc(
    "syn-gateway-uses",
    ["If the order is complete , ship it ."],
    [("g1", "XOR Gateway", (0,)), ("d1", "Activity Data", (1, 2))],
    relations=[("r0", "uses", "g1", "d1")],
))
def test_every_valid_document_compiles_to_a_valid_graph(doc):
    assert corpus.validate(doc, PET_SCHEMA) == []
    g = compile_document(doc, PET_SCHEMA)
    assert validate_graph(g) == []
    parse_bpmn(serialize_bpmn(layout(g)))


def test_compile_cost_grows_linearly(pet_schema, monkeypatch):
    from test_parser import concatenated

    pet = corpus.load_pet(DATA_DIR / "pet.jsonl")
    calls = [0]
    normalize = corpus.normalize_type_name

    def counted(name):
        calls[0] += 1
        return normalize(name)

    monkeypatch.setattr(corpus, "normalize_type_name", counted)
    counts = []
    for k in (1, 2):
        doc = concatenated(pet.documents, k)
        # a fresh copy starts with an empty memo, so each count is its own compile's
        schema = dataclasses.replace(pet_schema)
        calls[0] = 0
        compile_document(doc, schema)
        counts.append(calls[0])
    assert 0 < counts[1] <= 2.2 * counts[0], counts


def test_compile_resolves_each_type_name_a_fixed_number_of_times(pet_schema, monkeypatch):
    # the stages share one grouping by role, and a grouping resolves each
    # distinct type name once, so the count does not grow with the document
    from test_parser import concatenated

    pet = corpus.load_pet(DATA_DIR / "pet.jsonl")
    calls = [0]
    for name in ("mention_role_of", "relation_role_of"):
        resolve = getattr(corpus.SchemaDescriptor, name)

        def counted(self, type_name, resolve=resolve):
            calls[0] += 1
            return resolve(self, type_name)

        monkeypatch.setattr(corpus.SchemaDescriptor, name, counted)
    counts = []
    for k in (1, 4):
        calls[0] = 0
        compile_document(concatenated(pet.documents, k), pet_schema)
        counts.append(calls[0])
    assert 0 < counts[0] == counts[1], counts


# sha256 over the serialized BPMN of every PET document, then doc-3.3,
# recorded before the role lookups were reworked
BPMN_DIGEST = "2897b10a2b4390fe85fcf4c86fca5eede20c2a09be50ba7073fcd179dec9251a"


def test_bpmn_bytes_unchanged(pet_schema, doc33):
    digest = hashlib.sha256()
    for doc in corpus.load_pet(DATA_DIR / "pet.jsonl").documents + (doc33,):
        xml = serialize_bpmn(layout(compile_document(doc, pet_schema)))
        digest.update(xml.encode("utf-8"))
    assert digest.hexdigest() == BPMN_DIGEST


# ---------------------------------------------------------------------------
# escaping

XML_SPECIALS = st.sampled_from(list("&<>\"'\n\r\t") + ["é", "ß", "→", "日本"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(XML_SPECIALS, st.text(max_size=5))).map("".join))
@example('say "hi"')
@example("it's")
@example("both \" and ' &<>\n\r\t é")
@example("task_1a2b3c4d")
@example("shape_lane_0f")
@example("é1")
@example("_")
def test_escaping_matches_saxutils(text):
    assert _escape(text) == escape(text)
    assert _quoteattr(text) == quoteattr(text)

