"""Compiling extracted process information into BPMN 2.0.

Three stages. Consolidation repairs the annotation level: conditions
are attached to their decision gateway, gateway mentions naming one
decision point are merged, and activities without a performer get the
closest actor to their left. The vertex stage turns mentions and
entities into lanes and nodes. Linking adds sequence flows, message
flows, and data associations, synthesizing start and end events.

The compiler reproduces what the annotations say, including their
mistakes; a missing performer can put a step into the wrong lane.
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import NamedTuple

from . import sha1_hex
from .corpus import Document, Entity, Relation, SchemaDescriptor

TASK = "task"
XOR = "xor_gateway"
AND = "and_gateway"
START = "start_event"
END = "end_event"
DATA = "data_object"

NODE_KINDS = (TASK, XOR, AND, START, END, DATA)
# the kinds a sequence or message flow may join
FLOW_KINDS = (TASK, XOR, AND)

UNASSIGNED_LANE_LABEL = "unassigned"


class Lane(NamedTuple):
    id: str
    label: str


class Node(NamedTuple):
    id: str
    kind: str
    label: str
    lane_id: str | None = None


class SequenceFlow(NamedTuple):
    id: str
    source: str
    target: str
    condition_label: str | None = None


class MessageFlow(NamedTuple):
    id: str
    source: str
    target: str


class DataAssociation(NamedTuple):
    id: str
    data_object: str
    task: str


@dataclass(frozen=True)
class ProcessGraph:
    lanes: tuple
    nodes: tuple
    sequence_flows: tuple = ()
    message_flows: tuple = ()
    data_associations: tuple = ()
    warnings: tuple = field(default=(), compare=False)
    # the node of each activity, gateway and data mention, by mention id
    mention_nodes: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class LayoutedModel:
    graph: ProcessGraph
    positions: dict = field(compare=False)
    lane_extents: dict = field(compare=False)


class _Ids:
    def __init__(self):
        self.counters: dict = {}

    def make(self, prefix: str, *parts: str) -> str:
        basis = "|".join(parts)
        ordinal = self.counters.get((prefix, basis), 0)
        self.counters[(prefix, basis)] = ordinal + 1
        digest = sha1_hex(f"{prefix}|{basis}|{ordinal}")
        return f"{prefix}_{digest[:8]}"


# ---------------------------------------------------------------------------
# role helpers

# key of the mention group holding both gateway roles
GATEWAY_ROLES = ("xor_gateway", "and_gateway")


def _mentions_by_role(doc: Document, schema: SchemaDescriptor):
    """Mentions grouped by role, in document order; each type name resolved once."""
    role_of = {t: schema.mention_role_of(t) for t in {m.mention_type for m in doc.mentions}}
    groups = defaultdict(list)
    for m in doc.mentions:
        role = role_of[m.mention_type]
        groups[role].append(m)
        if role in GATEWAY_ROLES:
            groups[GATEWAY_ROLES].append(m)
    return groups


def _relations_by_role(doc: Document, schema: SchemaDescriptor):
    """Relations grouped by role, in document order; each type name resolved once."""
    role_of = {t: schema.relation_role_of(t) for t in {r.relation_type for r in doc.relations}}
    groups = defaultdict(list)
    for r in doc.relations:
        groups[role_of[r.relation_type]].append(r)
    return groups


def _relation_type_for(schema: SchemaDescriptor, role: str) -> str | None:
    return next(iter(schema.relation_roles.get(role, ())), None)


def _nearest_left_index(mentions):
    """Lookup: token_index -> closest of mentions fully left of it, or None.

    Closeness is the mention's last token; ties (overlapping
    candidates) break toward the later start index, then the earlier
    mention. Built once per candidate list; each lookup bisects.
    """
    ordered = sorted(mentions, key=lambda m: m.token_indices[-1])
    lasts = [m.token_indices[-1] for m in ordered]
    # best[i]: the answer among ordered[:i + 1]. The sort is stable, so
    # of two mentions with equal (last, first) tokens the earlier comes
    # first, and only a strictly greater key replaces it.
    best: list = []
    for m in ordered:
        if best and (m.token_indices[-1], m.token_indices[0]) <= (
            best[-1].token_indices[-1], best[-1].token_indices[0]
        ):
            m = best[-1]
        best.append(m)

    def nearest(token_index: int):
        k = bisect_left(lasts, token_index)
        return best[k - 1] if k else None

    return nearest


def _left_neighbours(mentions, candidates):
    """(mention, its nearest-left candidate) for each mention that has one."""
    nearest_left = _nearest_left_index(candidates)
    for m in mentions:
        nearest = nearest_left(m.token_indices[0])
        if nearest is not None:
            yield m, nearest


# ---------------------------------------------------------------------------
# consolidation

def _gateway_groups(doc: Document, roles, same_gateway):
    """Merged gateway groups as mention id sets, by first occurrence.

    Only mentions of one gateway role merge, because build_vertices
    makes one node of one kind per group.
    """
    gateways = roles[GATEWAY_ROLES]
    role_of = {m.id: role for role in GATEWAY_ROLES for m in roles[role]}
    parent = {m.id: m.id for m in gateways}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union_by_role(ids) -> None:
        first: dict = {}
        for mid in ids:
            ra, rb = find(first.setdefault(role_of[mid], mid)), find(mid)
            if ra != rb:
                parent[rb] = ra

    touched = False
    for r in same_gateway:
        pair = (r.source_mention_id, r.target_mention_id)
        if all(mid in parent for mid in pair):
            union_by_role(pair)
            touched = True
    for e in doc.entities:
        members = [mid for mid in e.mention_ids if mid in parent]
        union_by_role(members)
        if len(members) > 1:
            touched = True
    if not touched:
        # no explicit merge information anywhere: gateways in one
        # sentence are taken to name the same decision point
        by_sentence: dict = {}
        for m in gateways:
            sent = doc.tokens[m.token_indices[0]].sentence_index
            by_sentence.setdefault(sent, []).append(m.id)
        for members in by_sentence.values():
            union_by_role(members)

    grouped: dict = {}
    for m in gateways:
        grouped.setdefault(find(m.id), []).append(m)
    groups = [
        sorted(members, key=lambda m: m.token_indices[0])
        for members in grouped.values()
    ]
    groups.sort(key=lambda members: members[0].token_indices[0])
    return [frozenset(m.id for m in members) for members in groups]


def consolidate(doc: Document, schema: SchemaDescriptor) -> Document:
    """Attach conditions, merge gateways, complete performers."""
    roles = _mentions_by_role(doc, schema)
    relation_roles = _relations_by_role(doc, schema)
    gateways = roles[GATEWAY_ROLES]
    relations = list(doc.relations)
    entities = list(doc.entities)

    # 1. conditions -> nearest preceding gateway
    attach_type = _relation_type_for(schema, "condition_attachment")
    if attach_type is not None:
        attached = {
            r.target_mention_id for r in relation_roles["condition_attachment"]
        }
        unattached = [c for c in roles["condition"] if c.id not in attached]
        for counter, (cond, gateway) in enumerate(
            _left_neighbours(unattached, gateways)
        ):
            relations.append(
                Relation(f"r-cond-{counter}", attach_type, gateway.id, cond.id)
            )

    # 2. gateway mentions naming one decision point become one entity
    groups = [
        g for g in _gateway_groups(doc, roles, relation_roles["same_gateway"])
        if len(g) > 1
    ]
    existing = {frozenset(e.mention_ids) for e in entities}
    new_groups = [key for key in groups if key not in existing]
    if new_groups:
        # entities strictly inside a new merged group give way to it; the
        # groups are disjoint, so one member names the only candidate,
        # and an entity without mentions lies inside every group
        group_of = {mid: key for key in new_groups for mid in key}
        entities = [
            e for e in entities
            if e.mention_ids and not set(e.mention_ids) < group_of.get(
                next(iter(e.mention_ids)), frozenset()
            )
        ]
        entities.extend(
            Entity(f"e-gw-{counter}", key) for counter, key in enumerate(new_groups)
        )

    # 3. performer completion by the nearest-left rule
    perf_type = _relation_type_for(schema, "performer")
    if perf_type is not None:
        performed = {r.source_mention_id for r in relation_roles["performer"]}
        unperformed = [a for a in roles["activity"] if a.id not in performed]
        for counter, (activity, actor) in enumerate(
            _left_neighbours(unperformed, roles["actor"])
        ):
            relations.append(
                Relation(f"r-perf-{counter}", perf_type, activity.id, actor.id)
            )

    return replace(
        doc, relations=tuple(relations), entities=tuple(entities)
    )


# ---------------------------------------------------------------------------
# vertices

def _longest_surface(doc: Document, members) -> str:
    # members arrive ordered by first occurrence, so a length tie
    # resolves to the earliest mention
    return max((doc.surface(m) for m in members), key=len)


def build_vertices(doc: Document, roles, relation_roles) -> ProcessGraph:
    """Lanes and nodes for a consolidated document and its role groups."""
    ids = _Ids()

    lanes: list = []
    lane_of_actor_mention: dict = {}
    for members in doc.clusters(roles["actor"]):
        label = _longest_surface(doc, members)
        lane = Lane(ids.make("lane", label), label)
        lanes.append(lane)
        for m in members:
            lane_of_actor_mention[m.id] = lane.id
    # every actor lane exists by now, so the unassigned lane comes last
    unassigned = Lane(ids.make("lane", UNASSIGNED_LANE_LABEL), UNASSIGNED_LANE_LABEL)

    def lane_of(actor_mention_id) -> str:
        """The actor's lane, else the unassigned lane, added on first need."""
        lane_id = lane_of_actor_mention.get(actor_mention_id)
        if lane_id is not None:
            return lane_id
        if not lanes or lanes[-1] is not unassigned:
            lanes.append(unassigned)
        return unassigned.id

    performer_of: dict = {}
    for r in relation_roles["performer"]:
        performer_of.setdefault(r.source_mention_id, r.target_mention_id)

    first_lane_id = lanes[0].id if lanes else lane_of(None)
    nodes: list = [Node(ids.make("start", ""), START, "", first_lane_id)]
    mention_nodes: dict = {}

    def add(node: Node, members) -> None:
        nodes.append(node)
        for m in members:
            mention_nodes[m.id] = node.id

    for m in roles["activity"]:
        surface = doc.surface(m)
        add(Node(ids.make("task", surface), TASK, surface,
                 lane_of(performer_of.get(m.id))), (m,))

    gateways = sorted(
        [(XOR, members) for members in doc.clusters(roles["xor_gateway"])]
        + [(AND, members) for members in doc.clusters(roles["and_gateway"])],
        key=lambda pair: pair[1][0].token_indices[0],
    )
    nearest_actor = _nearest_left_index(roles["actor"])
    for kind, members in gateways:
        anchor = nearest_actor(members[0].token_indices[0])
        surface = doc.surface(members[0])
        add(Node(ids.make("gate", surface), kind, surface,
                 lane_of(None if anchor is None else anchor.id)), members)

    for members in doc.clusters(roles["data"]):
        label = _longest_surface(doc, members)
        add(Node(ids.make("data", label), DATA, label, None), members)

    nodes.append(Node(ids.make("end", ""), END, "", first_lane_id))
    return ProcessGraph(lanes=tuple(lanes), nodes=tuple(nodes), mention_nodes=mention_nodes)


# ---------------------------------------------------------------------------
# linking

def link(graph: ProcessGraph, doc: Document, roles, relation_roles) -> ProcessGraph:
    """Connect the vertices with flows and data associations.

    Node kinds decide every edge: a flow joins two FLOW_KINDS nodes, a
    uses relation joins a task to a data object, and any other pair is
    skipped with a warning.
    """
    ids = _Ids()
    node_by_id = {n.id: n for n in graph.nodes}
    warnings: list = []

    def fitting(src: str, tgt: str, source_kinds, target_kinds):
        """The endpoint nodes of two mentions, or None when a kind does not fit."""
        source = node_by_id.get(graph.mention_nodes.get(src))
        target = node_by_id.get(graph.mention_nodes.get(tgt))
        if source and target and source.kind in source_kinds and target.kind in target_kinds:
            return source, target
        return None

    conditions = {m.id: m for m in roles["condition"]}
    attachment: dict = {}
    for r in relation_roles["condition_attachment"]:
        if r.target_mention_id in conditions:
            attachment.setdefault(r.target_mention_id, r.source_mention_id)

    into_condition: dict = {}
    out_of_condition: dict = {}
    edges: list = []
    for r in relation_roles["flow"]:
        src_is_cond = r.source_mention_id in conditions
        tgt_is_cond = r.target_mention_id in conditions
        if tgt_is_cond and not src_is_cond:
            into_condition.setdefault(r.target_mention_id, r.source_mention_id)
        elif src_is_cond and not tgt_is_cond:
            out_of_condition.setdefault(r.source_mention_id, []).append(
                r.target_mention_id
            )
        elif src_is_cond and tgt_is_cond:
            warnings.append(f"skipped link {r.id}: both endpoints are conditions")
        else:
            edges.append((r.id, r.source_mention_id, r.target_mention_id, None))

    for cond_id in sorted(
        out_of_condition, key=lambda c: conditions[c].token_indices[0]
    ):
        source = into_condition.get(cond_id, attachment.get(cond_id))
        label = doc.surface(conditions[cond_id])
        if source is None:
            warnings.append(
                f"skipped link: condition {cond_id!r} has no gateway to attach to"
            )
            continue
        for target in out_of_condition[cond_id]:
            edges.append((None, source, target, label))

    sequence_flows: list = []
    message_flows: list = []

    def add_edge(source: Node, target: Node, label: str | None) -> None:
        if source.lane_id == target.lane_id:
            sequence_flows.append(
                SequenceFlow(
                    ids.make("flow", source.id, target.id),
                    source.id, target.id, label,
                )
            )
        else:
            if label is not None:
                warnings.append(
                    f"condition label {label!r} dropped on cross-lane flow"
                )
            message_flows.append(
                MessageFlow(
                    ids.make("mflow", source.id, target.id),
                    source.id, target.id,
                )
            )

    for rel_id, src, tgt, label in edges:
        pair = fitting(src, tgt, FLOW_KINDS, FLOW_KINDS)
        if pair is None:
            name = rel_id if rel_id is not None else f"{src}->{tgt}"
            warnings.append(
                f"skipped link {name}: endpoint is not an activity or gateway"
            )
            continue
        add_edge(*pair, label)

    # data associations, with label composition
    associations: list = []
    relabel: dict = {}
    for r in relation_roles["uses"]:
        pair = fitting(r.source_mention_id, r.target_mention_id, (TASK,), (DATA,))
        if pair is None:
            warnings.append(
                f"skipped link {r.id}: not an activity-to-data pair"
            )
            continue
        task, data = pair
        associations.append(
            DataAssociation(
                ids.make("assoc", task.id, data.id),
                data_object=data.id, task=task.id,
            )
        )
        current = relabel.get(task.id, task.label)
        if data.label.casefold() not in current.casefold():
            relabel[task.id] = f"{current} {data.label}"

    # start and end synthesis over nodes that can carry flow
    linkable = [n for n in graph.nodes if n.kind in FLOW_KINDS]
    has_incoming = {f.target for f in sequence_flows + message_flows}
    has_outgoing = {f.source for f in sequence_flows + message_flows}
    events = {n.kind: n for n in graph.nodes if n.kind in (START, END)}
    for n in linkable:
        if n.id not in has_incoming:
            add_edge(events[START], n, None)
    for n in linkable:
        if n.id not in has_outgoing:
            add_edge(n, events[END], None)

    return ProcessGraph(
        lanes=graph.lanes,
        nodes=tuple(n._replace(label=relabel[n.id]) if n.id in relabel else n
                    for n in graph.nodes),
        sequence_flows=tuple(sequence_flows),
        message_flows=tuple(message_flows),
        data_associations=tuple(associations),
        warnings=tuple(warnings),
        mention_nodes=graph.mention_nodes,
    )


def compile_document(doc: Document, schema: SchemaDescriptor) -> ProcessGraph:
    """Consolidate, group by role once, build vertices, and link in one step."""
    consolidated = consolidate(doc, schema)
    groups = _mentions_by_role(consolidated, schema), _relations_by_role(consolidated, schema)
    return link(build_vertices(consolidated, *groups), consolidated, *groups)


# ---------------------------------------------------------------------------
# validation

# a character outside XML 1.0's Char production, which no label may hold
_NOT_XML_CHAR = re.compile(r"[^\t\n\r\x20-\uD7FF\uE000-\uFFFD\U00010000-\U0010FFFF]")


def validate_graph(graph: ProcessGraph) -> list:
    problems: list = []
    node_ids = [n.id for n in graph.nodes]
    if len(set(node_ids)) != len(node_ids):
        problems.append("duplicate node ids")
    lane_ids = {l.id for l in graph.lanes}
    node_by_id = {n.id: n for n in graph.nodes}
    for n in graph.nodes:
        if n.kind not in NODE_KINDS:
            problems.append(f"node {n.id}: unknown kind {n.kind!r}")
        if n.kind == DATA:
            if n.lane_id is not None:
                problems.append(f"data object {n.id} must not sit in a lane")
        elif n.lane_id not in lane_ids:
            problems.append(f"node {n.id}: unresolved lane {n.lane_id!r}")
    for f in graph.sequence_flows:
        if f.source not in node_by_id or f.target not in node_by_id:
            problems.append(f"sequence flow {f.id}: unresolved endpoint")
        elif node_by_id[f.source].lane_id != node_by_id[f.target].lane_id:
            problems.append(f"sequence flow {f.id} crosses lanes")
    for f in graph.message_flows:
        if f.source not in node_by_id or f.target not in node_by_id:
            problems.append(f"message flow {f.id}: unresolved endpoint")
        elif node_by_id[f.source].lane_id == node_by_id[f.target].lane_id:
            problems.append(f"message flow {f.id} stays inside one lane")
    kind_of = {n.id: n.kind for n in graph.nodes}
    for a in graph.data_associations:
        if kind_of.get(a.data_object) != DATA:
            problems.append(f"association {a.id}: {a.data_object!r} is not a data object")
        if kind_of.get(a.task) != TASK:
            problems.append(f"association {a.id}: {a.task!r} is not a task")
    starts = [n for n in graph.nodes if n.kind == START]
    ends = [n for n in graph.nodes if n.kind == END]
    if len(starts) != 1:
        problems.append(f"expected exactly one start event, found {len(starts)}")
    if not ends:
        problems.append("expected at least one end event")
    # one search over every label; only a hit searches them one by one
    labelled = (("lane", graph.lanes, [lane.label for lane in graph.lanes]),
                ("node", graph.nodes, [n.label for n in graph.nodes]),
                ("sequence flow", graph.sequence_flows,
                 [f.condition_label or "" for f in graph.sequence_flows]))
    if _NOT_XML_CHAR.search("\n".join(chain.from_iterable(labels for *_, labels in labelled))):
        for what, elements, labels in labelled:
            for element, label in zip(elements, labels):
                if bad := _NOT_XML_CHAR.search(label):
                    problems.append(f"{what} {element.id}: label holds U+{ord(bad[0]):04X}, "
                                    "which XML 1.0 does not allow")
    return problems


# ---------------------------------------------------------------------------
# layout

COLUMN_WIDTH = 160
LANE_HEIGHT = 140
LANE_X = 40
LANE_TOP = 40
NODE_SIZES = {
    TASK: (120, 60),
    XOR: (50, 50),
    AND: (50, 50),
    START: (36, 36),
    END: (36, 36),
    DATA: (40, 55),
}


def _topological_order(graph: ProcessGraph):
    """Kahn's algorithm over all flows; None when the graph has a cycle."""
    flow_nodes = [n.id for n in graph.nodes if n.kind != DATA]
    incoming: dict = {nid: 0 for nid in flow_nodes}
    successors: dict = {nid: [] for nid in flow_nodes}
    for f in list(graph.sequence_flows) + list(graph.message_flows):
        if f.source in incoming and f.target in incoming:
            successors[f.source].append(f.target)
            incoming[f.target] += 1
    creation_rank = {nid: i for i, nid in enumerate(flow_nodes)}
    ready = [creation_rank[nid] for nid in flow_nodes if incoming[nid] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = flow_nodes[heapq.heappop(ready)]
        order.append(nid)
        for succ in successors[nid]:
            incoming[succ] -= 1
            if incoming[succ] == 0:
                heapq.heappush(ready, creation_rank[succ])
    if len(order) != len(flow_nodes):
        return None
    return order


def layout(graph: ProcessGraph) -> LayoutedModel:
    """Grid placement: x follows flow order, y the lane row."""
    order = _topological_order(graph)
    if order is None:
        order = [n.id for n in graph.nodes if n.kind != DATA]
    column = {nid: i for i, nid in enumerate(order)}
    lane_row = {lane.id: i for i, lane in enumerate(graph.lanes)}

    positions: dict = {}
    for n in graph.nodes:
        w, h = NODE_SIZES[n.kind]
        if n.kind == DATA:
            continue
        x = LANE_X + 40 + column[n.id] * COLUMN_WIDTH
        y = LANE_TOP + lane_row[n.lane_id] * LANE_HEIGHT + (LANE_HEIGHT - h) // 2
        positions[n.id] = (x, y, w, h)

    data_nodes = [n for n in graph.nodes if n.kind == DATA]
    strip_y = LANE_TOP + len(graph.lanes) * LANE_HEIGHT + 30
    for i, n in enumerate(data_nodes):
        w, h = NODE_SIZES[DATA]
        positions[n.id] = (LANE_X + 40 + i * COLUMN_WIDTH, strip_y, w, h)

    width = LANE_X + 80 + COLUMN_WIDTH * max(
        [len(order)] + [len(data_nodes)] + [1]
    )
    lane_extents = {
        lane.id: (LANE_X, LANE_TOP + i * LANE_HEIGHT, width, LANE_HEIGHT)
        for i, lane in enumerate(graph.lanes)
    }
    return LayoutedModel(graph=graph, positions=positions, lane_extents=lane_extents)


# ---------------------------------------------------------------------------
# serialization

NS_MODEL = "http://www.omg.org/spec/BPMN/20100524/MODEL"
NS_DI = "http://www.omg.org/spec/BPMN/20100524/DI"
NS_DC = "http://www.omg.org/spec/DD/20100524/DC"
NS_DDI = "http://www.omg.org/spec/DD/20100524/DI"

_KIND_TAGS = {
    TASK: "task",
    XOR: "exclusiveGateway",
    AND: "parallelGateway",
    START: "startEvent",
    END: "endEvent",
}


# The two helpers give xml.sax.saxutils.escape and quoteattr's output byte
# for byte (saxutils itself imports urllib, http and ssl); an identifier,
# as every generated id is, holds no character either one replaces.

def _escape(text: str) -> str:
    if text.isidentifier():
        return text
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _quoteattr(text: str) -> str:
    if text.isidentifier():
        return f'"{text}"'
    text = (_escape(text).replace("\n", "&#10;").replace("\r", "&#13;")
            .replace("\t", "&#9;"))
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def serialize_bpmn(model: LayoutedModel) -> str:
    graph = model.graph
    out: list = []
    push = out.append
    push('<?xml version="1.0" encoding="UTF-8"?>\n')
    push(
        f'<bpmn:definitions xmlns:bpmn="{NS_MODEL}" xmlns:bpmndi="{NS_DI}" '
        f'xmlns:dc="{NS_DC}" xmlns:di="{NS_DDI}" id="definitions_1" '
        'targetNamespace="urn:procex:bpmn">\n'
    )
    push('  <bpmn:collaboration id="collaboration_1">\n')
    push('    <bpmn:participant id="pool_1" processRef="process_1"/>\n')
    for f in graph.message_flows:
        push(
            f'    <bpmn:messageFlow id={_quoteattr(f.id)} '
            f'sourceRef={_quoteattr(f.source)} targetRef={_quoteattr(f.target)}/>\n'
        )
    push('  </bpmn:collaboration>\n')
    push('  <bpmn:process id="process_1">\n')
    push('    <bpmn:laneSet id="laneset_1">\n')
    members: dict = {}
    for n in graph.nodes:
        if n.kind != DATA and n.lane_id is not None:
            members.setdefault(n.lane_id, []).append(n.id)
    for lane in graph.lanes:
        push(f'      <bpmn:lane id={_quoteattr(lane.id)} name={_quoteattr(lane.label)}>\n')
        for nid in members.get(lane.id, []):
            push(f'        <bpmn:flowNodeRef>{_escape(nid)}</bpmn:flowNodeRef>\n')
        push('      </bpmn:lane>\n')
    push('    </bpmn:laneSet>\n')

    assoc_by_task: dict = {}
    for a in graph.data_associations:
        assoc_by_task.setdefault(a.task, []).append(a)
    for n in graph.nodes:
        if n.kind == DATA:
            push(
                f'    <bpmn:dataObjectReference id={_quoteattr(n.id)} '
                f'name={_quoteattr(n.label)} dataObjectRef={_quoteattr("obj_" + n.id)}/>\n'
            )
            push(f'    <bpmn:dataObject id={_quoteattr("obj_" + n.id)}/>\n')
            continue
        tag = _KIND_TAGS[n.kind]
        name_attr = f" name={_quoteattr(n.label)}" if n.label else ""
        associations = assoc_by_task.get(n.id, [])
        if not associations:
            push(f'    <bpmn:{tag} id={_quoteattr(n.id)}{name_attr}/>\n')
        else:
            push(f'    <bpmn:{tag} id={_quoteattr(n.id)}{name_attr}>\n')
            for a in associations:
                push(
                    f'      <bpmn:dataInputAssociation id={_quoteattr(a.id)}>\n'
                    f'        <bpmn:sourceRef>{_escape(a.data_object)}</bpmn:sourceRef>\n'
                    '      </bpmn:dataInputAssociation>\n'
                )
            push(f'    </bpmn:{tag}>\n')
    for f in graph.sequence_flows:
        label = (
            f' name={_quoteattr(f.condition_label)}'
            if f.condition_label is not None else ""
        )
        push(
            f'    <bpmn:sequenceFlow id={_quoteattr(f.id)} '
            f'sourceRef={_quoteattr(f.source)} targetRef={_quoteattr(f.target)}{label}/>\n'
        )
    push('  </bpmn:process>\n')

    push('  <bpmndi:BPMNDiagram id="diagram_1">\n')
    push('    <bpmndi:BPMNPlane id="plane_1" bpmnElement="collaboration_1">\n')
    push(
        '      <bpmndi:BPMNShape id="shape_pool_1" bpmnElement="pool_1" '
        'isHorizontal="true">\n'
    )
    all_extents = list(model.lane_extents.values())
    if all_extents:
        x = min(e[0] for e in all_extents)
        y = min(e[1] for e in all_extents)
        w = max(e[2] for e in all_extents)
        h = sum(e[3] for e in all_extents)
    else:
        x, y, w, h = LANE_X, LANE_TOP, 400, LANE_HEIGHT
    push(f'        <dc:Bounds x="{x}" y="{y}" width="{w}" height="{h}"/>\n')
    push('      </bpmndi:BPMNShape>\n')
    for lane in graph.lanes:
        lx, ly, lw, lh = model.lane_extents[lane.id]
        push(
            f'      <bpmndi:BPMNShape id={_quoteattr("shape_" + lane.id)} '
            f'bpmnElement={_quoteattr(lane.id)} isHorizontal="true">\n'
            f'        <dc:Bounds x="{lx}" y="{ly}" width="{lw}" height="{lh}"/>\n'
            '      </bpmndi:BPMNShape>\n'
        )
    for n in graph.nodes:
        nx, ny, nw, nh = model.positions[n.id]
        push(
            f'      <bpmndi:BPMNShape id={_quoteattr("shape_" + n.id)} '
            f'bpmnElement={_quoteattr(n.id)}>\n'
            f'        <dc:Bounds x="{nx}" y="{ny}" width="{nw}" height="{nh}"/>\n'
            '      </bpmndi:BPMNShape>\n'
        )
    push('    </bpmndi:BPMNPlane>\n')
    push('  </bpmndi:BPMNDiagram>\n')
    push('</bpmn:definitions>\n')
    return "".join(out)


def parse_bpmn(xml_text: str) -> LayoutedModel:
    """Read serialized output back into a layouted model."""
    # expat is loaded here, on first use: compiling never reads XML
    import xml.etree.ElementTree as ET

    ns = {"bpmn": NS_MODEL, "bpmndi": NS_DI, "dc": NS_DC}
    root = ET.fromstring(xml_text)

    message_flows = tuple(
        MessageFlow(el.get("id"), el.get("sourceRef"), el.get("targetRef"))
        for el in root.findall("bpmn:collaboration/bpmn:messageFlow", ns)
    )
    process = root.find("bpmn:process", ns)

    lane_of_node: dict = {}
    lanes: list = []
    for lane_el in process.findall("bpmn:laneSet/bpmn:lane", ns):
        lane = Lane(lane_el.get("id"), lane_el.get("name", ""))
        lanes.append(lane)
        for ref in lane_el.findall("bpmn:flowNodeRef", ns):
            lane_of_node[ref.text] = lane.id

    tag_kinds = {f"{{{NS_MODEL}}}{tag}": kind for kind, tag in _KIND_TAGS.items()}
    data_tag = f"{{{NS_MODEL}}}dataObjectReference"
    seq_tag = f"{{{NS_MODEL}}}sequenceFlow"

    nodes: list = []
    sequence_flows: list = []
    associations: list = []
    for el in process:
        if el.tag in tag_kinds:
            node_id = el.get("id")
            nodes.append(
                Node(node_id, tag_kinds[el.tag], el.get("name", ""),
                     lane_of_node.get(node_id))
            )
            for assoc in el.findall("bpmn:dataInputAssociation", ns):
                associations.append(
                    DataAssociation(
                        assoc.get("id"),
                        assoc.find("bpmn:sourceRef", ns).text,
                        node_id,
                    )
                )
        elif el.tag == data_tag:
            nodes.append(Node(el.get("id"), DATA, el.get("name", ""), None))
        elif el.tag == seq_tag:
            sequence_flows.append(
                SequenceFlow(
                    el.get("id"), el.get("sourceRef"), el.get("targetRef"),
                    el.get("name"),
                )
            )

    positions: dict = {}
    lane_extents: dict = {}
    lane_ids = {lane.id for lane in lanes}
    node_ids = {n.id for n in nodes}
    for shape in root.findall(
        "bpmndi:BPMNDiagram/bpmndi:BPMNPlane/bpmndi:BPMNShape", ns
    ):
        element = shape.get("bpmnElement")
        bounds = shape.find("dc:Bounds", ns)
        box = tuple(int(bounds.get(k)) for k in ("x", "y", "width", "height"))
        if element in lane_ids:
            lane_extents[element] = box
        elif element in node_ids:
            positions[element] = box

    graph = ProcessGraph(
        lanes=tuple(lanes),
        nodes=tuple(nodes),
        sequence_flows=tuple(sequence_flows),
        message_flows=message_flows,
        data_associations=tuple(associations),
    )
    return LayoutedModel(graph=graph, positions=positions, lane_extents=lane_extents)
