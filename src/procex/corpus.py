"""Data model and loaders for process-annotated text corpora.

A Document carries the raw text, its tokens, and four annotation layers:
mentions (typed token spans), entities (mention clusters), relations
(typed directed mention pairs), and declarative constraints (typed,
optionally negated, over one or two action phrases).

Datasets pair a list of documents with a SchemaDescriptor that holds the
type inventories, definitions, and per-dataset policy knobs as data.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

FORMAT_VERSION = 1

TASKS = ("MD", "ER", "RE", "CE")


class LoadError(Exception):
    """An input file could not be decoded."""


class ValidationError(Exception):
    """Decoded data violates a document invariant."""


def normalize_type_name(name: str) -> str:
    """Canonical key for type-name comparison.

    Case-insensitive, underscores and spaces interchangeable, runs of
    whitespace collapsed.
    """
    return " ".join(name.replace("_", " ").casefold().split())


def normalize_phrase(text: str) -> str:
    # case-fold, collapse whitespace, strip punctuation off the edges
    collapsed = " ".join(text.casefold().split())
    return collapsed.strip(string.punctuation + string.whitespace)


@dataclass(frozen=True)
class Token:
    text: str
    index: int
    sentence_index: int


@dataclass(frozen=True)
class Mention:
    id: str
    mention_type: str
    token_indices: tuple[int, ...]


@dataclass(frozen=True)
class Entity:
    id: str
    mention_ids: frozenset[str]


@dataclass(frozen=True)
class Relation:
    id: str
    relation_type: str
    source_mention_id: str
    target_mention_id: str


@dataclass(frozen=True)
class Constraint:
    id: str
    constraint_type: str
    negated: bool
    first_action: str
    second_action: str | None = None


@dataclass(frozen=True)
class Document:
    id: str
    raw_text: str
    tokens: tuple[Token, ...] = ()
    mentions: tuple[Mention, ...] = ()
    entities: tuple[Entity, ...] = ()
    relations: tuple[Relation, ...] = ()
    constraints: tuple[Constraint, ...] = ()

    def mention_map(self) -> dict[str, Mention]:
        return {m.id: m for m in self.mentions}

    def surface(self, mention: Mention) -> str:
        return " ".join(self.tokens[i].text for i in mention.token_indices)


@dataclass(frozen=True)
class SchemaDescriptor:
    """Type inventories plus per-dataset policy, shipped as data."""

    dataset_name: str
    mention_types: tuple[str, ...] = ()
    relation_types: tuple[str, ...] = ()
    constraint_types: tuple[str, ...] = ()
    unary_constraint_types: frozenset[str] = frozenset()
    definitions: dict[str, str] = field(default_factory=dict)
    hints: dict[str, tuple[str, ...]] = field(default_factory=dict)
    considerations: tuple[str, ...] = ()
    tasks: tuple[str, ...] = TASKS
    mention_roles: dict[str, tuple[str, ...]] = field(default_factory=dict)
    relation_roles: dict[str, tuple[str, ...]] = field(default_factory=dict)
    match_policy: dict = field(default_factory=dict)

    def __eq__(self, other):  # dicts inside make the default fine
        if not isinstance(other, SchemaDescriptor):
            return NotImplemented
        return self.to_record() == other.to_record()

    def __hash__(self):
        return hash(self.dataset_name)

    @cached_property
    def _names(self) -> dict[tuple[str, str], str]:
        """(kind, normalized name) -> declared type, or role for role kinds.

        Built once per instance from its own fields; when two names
        normalize alike, the first declaration wins.
        """
        table: dict = {}
        for kind, declared in (
            # an inventory name resolves to itself
            ("mention", {name: (name,) for name in self.mention_types}),
            ("relation", {name: (name,) for name in self.relation_types}),
            ("constraint", {name: (name,) for name in self.constraint_types}),
            ("unary", {name: (name,) for name in self.unary_constraint_types}),
            ("mention role", self.mention_roles),
            ("relation role", self.relation_roles),
        ):
            for value, names in declared.items():
                for name in names:
                    table.setdefault((kind, normalize_type_name(name)), value)
        return table

    @cached_property
    def _resolved(self) -> dict[tuple[str, str], str | None]:
        """(kind, raw name) -> resolution, filled as names are looked up."""
        return {}

    def _resolve(self, kind: str, name: str) -> str | None:
        # each distinct raw name is normalized once per instance
        key = (kind, name)
        try:
            return self._resolved[key]
        except KeyError:
            value = self._names.get((kind, normalize_type_name(name)))
            self._resolved[key] = value
            return value

    def canonical_mention_type(self, name: str) -> str | None:
        return self._resolve("mention", name)

    def canonical_relation_type(self, name: str) -> str | None:
        return self._resolve("relation", name)

    def canonical_constraint_type(self, name: str) -> str | None:
        return self._resolve("constraint", name)

    def is_unary(self, constraint_type: str) -> bool:
        return self._resolve("unary", constraint_type) is not None

    def types_for_task(self, task: str) -> tuple[str, ...]:
        if task in ("MD", "ER"):
            return self.mention_types
        if task == "RE":
            return self.relation_types
        if task == "CE":
            return self.constraint_types
        raise ValueError(f"unknown task {task!r}")

    def mention_role_of(self, type_name: str) -> str | None:
        return self._resolve("mention role", type_name)

    def relation_role_of(self, type_name: str) -> str | None:
        return self._resolve("relation role", type_name)

    def validate(self) -> list[str]:
        problems = []
        for label, inventory in (
            ("mention", self.mention_types),
            ("relation", self.relation_types),
            ("constraint", self.constraint_types),
        ):
            seen = set()
            for name in inventory:
                key = normalize_type_name(name)
                if key in seen:
                    problems.append(f"duplicate {label} type {name!r}")
                seen.add(key)
                if not self.definitions.get(name, "").strip():
                    problems.append(f"{label} type {name!r} has no definition")
        for name in self.unary_constraint_types:
            if self.canonical_constraint_type(name) is None:
                problems.append(f"unary constraint type {name!r} not in inventory")
        for task in self.tasks:
            if task not in TASKS:
                problems.append(f"unknown task {task!r}")
        return problems

    def to_record(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "dataset_name": self.dataset_name,
            "mention_types": list(self.mention_types),
            "relation_types": list(self.relation_types),
            "constraint_types": list(self.constraint_types),
            "unary_constraint_types": sorted(self.unary_constraint_types),
            "definitions": dict(self.definitions),
            "hints": {k: list(v) for k, v in self.hints.items()},
            "considerations": list(self.considerations),
            "tasks": list(self.tasks),
            "mention_roles": {k: list(v) for k, v in self.mention_roles.items()},
            "relation_roles": {k: list(v) for k, v in self.relation_roles.items()},
            "match_policy": dict(self.match_policy),
        }

    @classmethod
    def from_record(cls, record: dict, what: str = "schema") -> "SchemaDescriptor":
        """Build a schema from its JSON record; what prefixes LoadError messages."""
        get = check(record, SCHEMA_SHAPE, what).get
        return cls(
            dataset_name=record["dataset_name"],
            mention_types=tuple(get("mention_types", ())),
            relation_types=tuple(get("relation_types", ())),
            constraint_types=tuple(get("constraint_types", ())),
            unary_constraint_types=frozenset(get("unary_constraint_types", ())),
            definitions=dict(get("definitions", {})),
            hints={k: tuple(v) for k, v in get("hints", {}).items()},
            considerations=tuple(get("considerations", ())),
            tasks=tuple(get("tasks", TASKS)),
            mention_roles={k: tuple(v) for k, v in get("mention_roles", {}).items()},
            relation_roles={k: tuple(v) for k, v in get("relation_roles", {}).items()},
            match_policy=dict(get("match_policy", {})),
        )


SCHEMA_SHAPE = {
    "dataset_name": str,
    "mention_types?": [str],
    "relation_types?": [str],
    "constraint_types?": [str],
    "unary_constraint_types?": [str],
    "definitions?": {str: str},
    "hints?": {str: [str]},
    "considerations?": [str],
    "tasks?": [str],
    "mention_roles?": {str: [str]},
    "relation_roles?": {str: [str]},
    "match_policy?": {"span_mode?": str, "type_sensitive?": bool,
                      "constraint_normalization?": str},
}


@dataclass(frozen=True)
class Dataset:
    schema: SchemaDescriptor
    documents: tuple[Document, ...] = ()

    def document(self, doc_id: str) -> Document:
        for doc in self.documents:
            if doc.id == doc_id:
                return doc
        raise KeyError(doc_id)


def load_schema(source: str | Path) -> SchemaDescriptor:
    """Load a schema from a bundled name ("pet") or a JSON file path."""
    path = Path(source)
    if path.suffix == ".json" and path.exists():
        text = path.read_text(encoding="utf-8")
    else:
        ref = resources.files("procex").joinpath("data", "schemas", f"{source}.json")
        try:
            text = ref.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise LoadError(f"no bundled schema or file named {source!r}")
    where = f"schema {source}"
    schema = SchemaDescriptor.from_record(decode_json(text, where), f"{where}: schema")
    problems = schema.validate()
    if problems:
        raise ValidationError(f"schema {schema.dataset_name}: " + "; ".join(problems))
    return schema


# ---------------------------------------------------------------------------
# BIO tagging

def decode_bio(tags: list[str], line_no: int | None = None) -> list[tuple[str, tuple[int, ...]]]:
    """Decode a BIO tag sequence into (type, token index span) pairs.

    Standard rules: B-X opens a span, I-X continues a span of the same
    type, and a bare I-X after O or a different type opens a new span.
    """
    where = f"line {line_no}: " if line_no is not None else ""
    spans: list[tuple[str, list[int]]] = []
    current: tuple[str, list[int]] | None = None
    for i, tag in enumerate(tags):
        if tag == "O":
            current = None
            continue
        if len(tag) < 3 or tag[1] != "-" or tag[0] not in "BI":
            raise LoadError(f"{where}bad BIO tag {tag!r} at token {i}")
        prefix, mention_type = tag[0], tag[2:]
        if prefix == "B" or current is None or current[0] != mention_type:
            current = (mention_type, [i])
            spans.append(current)
        else:
            current[1].append(i)
    return [(t, tuple(ix)) for t, ix in spans]


def encode_bio(mentions: list[Mention], token_count: int) -> list[str]:
    """Encode contiguous, non-overlapping mentions back into BIO tags."""
    tags = ["O"] * token_count
    for m in sorted(mentions, key=lambda m: m.token_indices[0]):
        indices = m.token_indices
        if list(indices) != list(range(indices[0], indices[-1] + 1)):
            raise ValueError(f"mention {m.id} is not contiguous")
        for i in indices:
            if tags[i] != "O":
                raise ValueError(f"mention {m.id} overlaps another mention at token {i}")
        tags[indices[0]] = f"B-{m.mention_type}"
        for i in indices[1:]:
            tags[i] = f"I-{m.mention_type}"
    return tags


# ---------------------------------------------------------------------------
# Validation

def validate(doc: Document, schema: SchemaDescriptor | None = None) -> list[str]:
    """Return a list of invariant violations, [] when the document is clean."""
    problems: list[str] = []
    n = len(doc.tokens)
    for i, tok in enumerate(doc.tokens):
        if tok.index != i:
            problems.append(f"token {i}: index field says {tok.index}")
    for a, b in zip(doc.tokens, doc.tokens[1:]):
        if b.sentence_index < a.sentence_index:
            problems.append(f"token {b.index}: sentence index decreases")

    mention_ids = set()
    seen_typed_spans = set()
    for m in doc.mentions:
        if m.id in mention_ids:
            problems.append(f"duplicate mention id {m.id}")
        mention_ids.add(m.id)
        if not m.token_indices:
            problems.append(f"mention {m.id}: empty span")
            continue
        if any(i < 0 or i >= n for i in m.token_indices):
            problems.append(f"mention {m.id}: token index out of range")
            continue
        if any(b <= a for a, b in zip(m.token_indices, m.token_indices[1:])):
            problems.append(f"mention {m.id}: token indices not strictly increasing")
        key = (normalize_type_name(m.mention_type), m.token_indices)
        if key in seen_typed_spans:
            problems.append(f"mention {m.id}: duplicate (type, span)")
        seen_typed_spans.add(key)
        if schema is not None and schema.canonical_mention_type(m.mention_type) is None:
            problems.append(f"mention {m.id}: type {m.mention_type!r} not in schema")

    claimed: dict[str, str] = {}
    entity_ids = set()
    for e in doc.entities:
        if e.id in entity_ids:
            problems.append(f"duplicate entity id {e.id}")
        entity_ids.add(e.id)
        if not e.mention_ids:
            problems.append(f"entity {e.id}: empty cluster")
        for mid in e.mention_ids:
            if mid not in mention_ids:
                problems.append(f"entity {e.id}: dangling mention id {mid}")
            elif mid in claimed:
                problems.append(f"entity {e.id}: mention {mid} already in entity {claimed[mid]}")
            else:
                claimed[mid] = e.id

    relation_ids = set()
    for r in doc.relations:
        if r.id in relation_ids:
            problems.append(f"duplicate relation id {r.id}")
        relation_ids.add(r.id)
        for end, mid in (("source", r.source_mention_id), ("target", r.target_mention_id)):
            if mid not in mention_ids:
                problems.append(f"relation {r.id}: dangling {end} mention id {mid}")
        if schema is not None and schema.canonical_relation_type(r.relation_type) is None:
            problems.append(f"relation {r.id}: type {r.relation_type!r} not in schema")

    constraint_ids = set()
    for c in doc.constraints:
        if c.id in constraint_ids:
            problems.append(f"duplicate constraint id {c.id}")
        constraint_ids.add(c.id)
        for label, action in (("first", c.first_action), ("second", c.second_action)):
            if action is None:
                continue
            if not action.strip():
                problems.append(f"constraint {c.id}: empty {label} action")
            elif action != " ".join(action.split()) or action != action.lower():
                problems.append(f"constraint {c.id}: {label} action not normalized")
        if schema is not None:
            canonical = schema.canonical_constraint_type(c.constraint_type)
            if canonical is None:
                problems.append(f"constraint {c.id}: type {c.constraint_type!r} not in schema")
            elif schema.is_unary(canonical):
                if c.second_action is not None:
                    problems.append(f"constraint {c.id}: unary type with a second action")
            elif c.second_action is None:
                problems.append(f"constraint {c.id}: binary type without a second action")
    return problems


def validate_dataset(dataset: Dataset) -> list[str]:
    problems = list(dataset.schema.validate())
    seen = set()
    for doc in dataset.documents:
        if doc.id in seen:
            problems.append(f"duplicate document id {doc.id}")
        seen.add(doc.id)
        problems.extend(f"{doc.id}: {p}" for p in validate(doc, dataset.schema))
    return problems


# ---------------------------------------------------------------------------
# Shape checks on decoded JSON

def check(value, shape, what: str):
    """Return value, decoded JSON, if it has the given shape; else raise LoadError.

    A shape is plain data: a type or a tuple of types, matched with
    isinstance; [shape] for an array; {field: shape} for an object,
    where a trailing "?" marks an optional field and fields the shape
    does not name are allowed; {str: shape} for a map. what names the
    value in the error, as in "line 3: document"; a field inside it is
    named by its path, as in 'tokens[].index' ([] an array element, {}
    a map value).
    """
    _check_all([value], shape, what, "")
    return value


def _check_all(values: list, shape, what: str, path: str) -> None:
    # one shape node at a time across all values, so a list of thousands
    # of objects costs a few passes per field; messages only on failure
    kind = type(shape) if type(shape) in (list, dict) else shape
    if not all(map(isinstance, values, repeat(kind))):
        bad = next(v for v in values if not isinstance(v, kind))
        subject = f"{what} field {path!r}" if path else what
        raise LoadError(f"{subject} is {_json_type(type(bad))}, not {_json_type(kind)}")
    if kind is shape:
        return
    if kind is list:
        _check_all(list(chain.from_iterable(values)), shape[0], what, path + "[]")
    elif str in shape:
        _check_all(list(chain.from_iterable(map(dict.values, values))), shape[str],
                   what, path + "{}")
    else:
        for name, field_shape in shape.items():
            key = name.removesuffix("?")
            at = f"{path}.{key}" if path else key
            if key != name:
                column = [d[key] for d in values if key in d]
            else:
                try:
                    column = list(map(itemgetter(key), values))
                except KeyError:
                    raise LoadError(f"{what} has no field {at!r}") from None
            _check_all(column, field_shape, what, at)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_type(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_json_type, kind))
    return _JSON_TYPES.get(kind, kind.__name__)


def decode_json(text: str, where: str):
    """json.loads, raising LoadError prefixed with where on bad input."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"{where}: not valid JSON ({exc.msg})") from exc
    except RecursionError as exc:  # valid JSON, but nested too deeply to decode
        raise LoadError(f"{where}: JSON nested too deeply") from exc


def json_lines(path: str | Path, prefix: str = "line "):
    """Yield (line number, object) per non-blank line of a JSON-lines file.

    Errors name the line as prefix + line number.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if line.strip():
                where = f"{prefix}{line_no}"
                yield line_no, check(decode_json(line, where), dict, f"{where}: record")


# ---------------------------------------------------------------------------
# PET export layout

def load_pet(path: str | Path, schema: SchemaDescriptor | None = None) -> Dataset:
    """Load a PET-layout export: one JSON object per line per document.

    Expected keys per line: "document name", "tokens", "sentence-IDs",
    "ner-tags" (BIO over the schema's mention types), "relations"
    (records with "relation-type", "source-mention-id",
    "target-mention-id" as ordinals into the decoded mention list), and
    "entity-clusters" (lists of mention ordinals).
    """
    if schema is None:
        schema = load_schema("pet")
    docs = tuple(_pet_document(record, schema, line_no) for line_no, record in json_lines(path))
    dataset = Dataset(schema=schema, documents=docs)
    _raise_on_validation(dataset)
    return dataset


PET_DOCUMENT_SHAPE = {
    "document name": str,
    "tokens": [str],
    "sentence-IDs": [int],
    "ner-tags": [str],
    "relations?": [{"relation-type": str, "source-mention-id": int, "target-mention-id": int}],
    "entity-clusters?": [[int]],
}


def _pet_document(record: dict, schema: SchemaDescriptor, line_no: int) -> Document:
    check(record, PET_DOCUMENT_SHAPE, f"line {line_no}: document")
    doc_id = record["document name"]
    words, sentence_ids, tags = record["tokens"], record["sentence-IDs"], record["ner-tags"]
    if not (len(words) == len(sentence_ids) == len(tags)):
        raise LoadError(
            f"line {line_no}: tokens ({len(words)}), sentence-IDs ({len(sentence_ids)}) "
            f"and ner-tags ({len(tags)}) differ in length"
        )
    tokens = tuple(
        Token(text=w, index=i, sentence_index=s)
        for i, (w, s) in enumerate(zip(words, sentence_ids))
    )
    decoded = decode_bio(tags, line_no)
    mentions = []
    for ordinal, (type_name, span) in enumerate(decoded):
        canonical = schema.canonical_mention_type(type_name)
        if canonical is None:
            raise LoadError(f"line {line_no}: BIO tag type {type_name!r} not in schema")
        mentions.append(Mention(id=f"m{ordinal}", mention_type=canonical, token_indices=span))

    def mention_id(ordinal, what):
        if not 0 <= ordinal < len(mentions):
            raise ValidationError(f"document {doc_id}: {what} mention ordinal {ordinal} is dangling")
        return mentions[ordinal].id

    relations = []
    for i, rel in enumerate(record.get("relations", ())):
        relation_type = rel["relation-type"]
        canonical = schema.canonical_relation_type(relation_type)
        if canonical is None:
            raise LoadError(f"line {line_no}: relation type {relation_type!r} not in schema")
        relations.append(
            Relation(
                id=f"r{i}",
                relation_type=canonical,
                source_mention_id=mention_id(rel["source-mention-id"], f"relation {i} source"),
                target_mention_id=mention_id(rel["target-mention-id"], f"relation {i} target"),
            )
        )
    entities = []
    for i, cluster in enumerate(record.get("entity-clusters", ())):
        entities.append(
            Entity(
                id=f"e{i}",
                mention_ids=frozenset(mention_id(o, f"entity {i}") for o in cluster),
            )
        )
    return Document(
        id=doc_id,
        raw_text=" ".join(words),
        tokens=tokens,
        mentions=tuple(mentions),
        entities=tuple(entities),
        relations=tuple(relations),
    )


# ---------------------------------------------------------------------------
# Canonical interchange format

def document_to_record(doc: Document) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "id": doc.id,
        "text": doc.raw_text,
        "tokens": [
            {"text": t.text, "index": t.index, "sentence_index": t.sentence_index}
            for t in doc.tokens
        ],
        "mentions": [
            {"id": m.id, "mention_type": m.mention_type, "token_indices": list(m.token_indices)}
            for m in doc.mentions
        ],
        "entities": [
            {"id": e.id, "mention_ids": sorted(e.mention_ids)} for e in doc.entities
        ],
        "relations": [
            {
                "id": r.id,
                "relation_type": r.relation_type,
                "source_mention_id": r.source_mention_id,
                "target_mention_id": r.target_mention_id,
            }
            for r in doc.relations
        ],
        "constraints": [
            {
                "id": c.id,
                "constraint_type": c.constraint_type,
                "negated": c.negated,
                "first_action": c.first_action,
                "second_action": c.second_action,
            }
            for c in doc.constraints
        ],
    }


DOCUMENT_SHAPE = {
    "id": str,
    "text": str,
    "tokens?": [{"text": str, "index": int, "sentence_index": int}],
    "mentions?": [{"id": str, "mention_type": str, "token_indices": [int]}],
    "entities?": [{"id": str, "mention_ids": [str]}],
    "relations?": [{"id": str, "relation_type": str,
                    "source_mention_id": str, "target_mention_id": str}],
    "constraints?": [{"id": str, "constraint_type": str, "negated": bool,
                      "first_action": str, "second_action?": (str, type(None))}],
}


def document_from_record(record: dict, what: str = "document") -> Document:
    """Decode one canonical document record; what prefixes LoadError messages."""
    version = record.get("format_version")
    if version != FORMAT_VERSION:
        raise LoadError(f"{what} has unsupported format_version {version!r}")
    get = check(record, DOCUMENT_SHAPE, what).get
    return Document(
        id=record["id"],
        raw_text=record["text"],
        tokens=tuple(
            Token(t["text"], t["index"], t["sentence_index"]) for t in get("tokens", ())
        ),
        mentions=tuple(
            Mention(m["id"], m["mention_type"], tuple(m["token_indices"]))
            for m in get("mentions", ())
        ),
        entities=tuple(
            Entity(e["id"], frozenset(e["mention_ids"])) for e in get("entities", ())
        ),
        relations=tuple(
            Relation(r["id"], r["relation_type"], r["source_mention_id"], r["target_mention_id"])
            for r in get("relations", ())
        ),
        constraints=tuple(
            Constraint(c["id"], c["constraint_type"], c["negated"], c["first_action"],
                       c.get("second_action"))
            for c in get("constraints", ())
        ),
    )


def save_canonical(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as line-delimited JSON: schema header, then documents."""
    lines = [json.dumps({"format_version": FORMAT_VERSION, "schema": dataset.schema.to_record()},
                        sort_keys=True)]
    lines.extend(
        json.dumps(document_to_record(doc), sort_keys=True) for doc in dataset.documents
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_canonical(path: str | Path, schema: SchemaDescriptor | None = None) -> Dataset:
    """Read a canonical-format dataset file back into a Dataset."""
    docs = []
    for line_no, record in json_lines(path):
        if "schema" in record and "id" not in record:
            if schema is None:
                schema = SchemaDescriptor.from_record(record["schema"], f"line {line_no}: schema")
            continue
        docs.append(document_from_record(record, f"line {line_no}: document"))
    if schema is None:
        raise LoadError(f"{path}: no schema header and no schema argument")
    dataset = Dataset(schema=schema, documents=tuple(docs))
    _raise_on_validation(dataset)
    return dataset


def _raise_on_validation(dataset: Dataset) -> None:
    problems = validate_dataset(dataset)
    if problems:
        raise ValidationError("; ".join(problems[:20]))
