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
import re
import string
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

FORMAT_VERSION = 1

# the schemas, template and baselines shipped inside the package
DATA_DIR = Path(__file__).parent / "data"

TASKS = ("MD", "ER", "RE", "CE")

# the values each match-policy setting may take
MATCH_POLICY_VALUES = {
    "span_mode": ("exact_span", "text_match"),
    "constraint_normalization": ("verbatim", "lemma_like"),
}


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


PHRASE_EDGES = string.punctuation + string.whitespace


def normalize_phrase(text: str) -> str:
    # case-fold, collapse whitespace, strip punctuation off the edges
    return " ".join(text.casefold().split()).strip(PHRASE_EDGES)


# records built once per token or annotation are NamedTuples: same
# fields, hash and repr as a frozen dataclass, and cheaper to build


class Token(NamedTuple):
    text: str
    index: int
    sentence_index: int


class Mention(NamedTuple):
    id: str
    mention_type: str
    token_indices: tuple[int, ...]


@dataclass(frozen=True)
class Entity:
    id: str
    mention_ids: frozenset[str]


class Relation(NamedTuple):
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

    def clusters(self, mentions) -> list[list[Mention]]:
        """The entities made only of the given mentions, plus a singleton
        for each other given mention.

        Members and clusters are ordered by first token; entities with
        no mentions are skipped.
        """
        mmap = {m.id: m for m in mentions}  # given mentions only: a call costs its input's size
        ids = mmap.keys()
        groups = [sorted(map(mmap.get, e.mention_ids), key=lambda m: m.token_indices[0])
                  for e in self.entities if e.mention_ids and e.mention_ids <= ids]
        clustered = {m.id for members in groups for m in members}
        groups.extend([m] for m in mentions if m.id not in clustered)
        return sorted(groups, key=lambda members: members[0].token_indices[0])


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
        for name, allowed in MATCH_POLICY_VALUES.items():
            if name in self.match_policy and self.match_policy[name] not in allowed:
                problems.append(f"unknown match_policy {name} {self.match_policy[name]!r} "
                                f"(allowed: {', '.join(allowed)})")
        return problems

    def to_record(self) -> dict:
        return {**asdict(self), "format_version": FORMAT_VERSION,
                "unary_constraint_types": sorted(self.unary_constraint_types)}

    @classmethod
    def from_record(cls, record: dict, what: str = "schema") -> "SchemaDescriptor":
        """Build a schema from its JSON record; what prefixes LoadError messages.

        Each field the record holds is read by name; its arrays, also those
        inside a map, become tuples, and the unary types a frozenset.
        """
        check(record, SCHEMA_SHAPE, what)
        values = {f.name: _tuples(record[f.name]) for f in fields(cls) if f.name in record}
        values["unary_constraint_types"] = frozenset(values.get("unary_constraint_types", ()))
        return cls(**values)


def _tuples(value):
    """A checked JSON value with its arrays, and a map's array values, as tuples."""
    if isinstance(value, dict):
        return {k: tuple(v) if isinstance(v, list) else v for k, v in value.items()}
    return tuple(value) if isinstance(value, list) else value


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
        raise ValidationError(f"unknown id {doc_id!r}")


def load_schema(source: str | Path) -> SchemaDescriptor:
    """Load a schema from a bundled name ("pet") or a JSON file path."""
    path = Path(source)
    where = f"schema {source}"
    if path.suffix == ".json" and path.exists():
        text = read_utf8(path, where)
    else:
        try:
            text = (DATA_DIR / "schemas" / f"{source}.json").read_text(encoding="utf-8")
        except FileNotFoundError:
            raise LoadError(f"no bundled schema or file named {source!r}")
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

def _not_in_schema(names, canonical) -> set:
    """The names that canonical resolves to None; none when there is no schema."""
    return set() if canonical is None else {n for n in names if canonical(n) is None}


def validate(doc: Document, schema: SchemaDescriptor | None = None) -> list[str]:
    """Return a list of invariant violations, [] when the document is clean."""
    problems: list[str] = []
    tokens = doc.tokens
    n = len(tokens)
    # whole-list comparisons find a clean document fast; messages come after
    if list(map(attrgetter("index"), tokens)) != list(range(n)):
        problems.extend(f"token {i}: index field says {tok.index}"
                        for i, tok in enumerate(tokens) if tok.index != i)
    sentences = list(map(attrgetter("sentence_index"), tokens))
    if sentences != sorted(sentences):
        problems.extend(f"token {b.index}: sentence index decreases"
                        for a, b in zip(tokens, tokens[1:])
                        if b.sentence_index < a.sentence_index)

    mention_ids = set()
    seen_typed_spans = set()
    # each distinct type name is normalized and looked up once
    type_keys = {name: normalize_type_name(name)
                 for name in {m.mention_type for m in doc.mentions}}
    unknown = _not_in_schema(type_keys, schema and schema.canonical_mention_type)
    for m in doc.mentions:
        indices = m.token_indices
        if m.id in mention_ids:
            problems.append(f"duplicate mention id {m.id}")
        mention_ids.add(m.id)
        if not indices:
            problems.append(f"mention {m.id}: empty span")
            continue
        if min(indices) < 0 or max(indices) >= n:
            problems.append(f"mention {m.id}: token index out of range")
            continue
        if len(indices) > 1 and list(indices) != sorted(set(indices)):
            problems.append(f"mention {m.id}: token indices not strictly increasing")
        key = (type_keys[m.mention_type], indices)
        if key in seen_typed_spans:
            problems.append(f"mention {m.id}: duplicate (type, span)")
        seen_typed_spans.add(key)
        if m.mention_type in unknown:
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
    unknown = _not_in_schema({r.relation_type for r in doc.relations},
                             schema and schema.canonical_relation_type)
    for r in doc.relations:
        if r.id in relation_ids:
            problems.append(f"duplicate relation id {r.id}")
        relation_ids.add(r.id)
        if r.source_mention_id not in mention_ids:
            problems.append(f"relation {r.id}: dangling source mention id {r.source_mention_id}")
        if r.target_mention_id not in mention_ids:
            problems.append(f"relation {r.id}: dangling target mention id {r.target_mention_id}")
        if r.relation_type in unknown:
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


# a file name holds at most 255 bytes, and a run directory's is "<id>.txt"
MAX_ID_BYTES = 255 - len(".txt")


def validate_dataset(dataset: Dataset) -> list[str]:
    problems = list(dataset.schema.validate())
    seen = set()
    for doc in dataset.documents:
        if doc.id in seen:
            problems.append(f"duplicate document id {doc.id}")
        seen.add(doc.id)
        # run directories name per-document files after the id
        if any(ch in doc.id for ch in "/\\\0"):
            problems.append(f"document id {doc.id!r} contains '/', '\\' or NUL")
        if len(doc.id.encode("utf-8", "surrogatepass")) > MAX_ID_BYTES:
            problems.append(f"document id {doc.id[:20]!r}... is longer than "
                            f"{MAX_ID_BYTES} bytes in UTF-8")
        problems.extend(f"{doc.id}: {p}" for p in validate(doc, dataset.schema))
    return problems


# ---------------------------------------------------------------------------
# Shape checks on decoded JSON

def check(value, shape, what: str):
    """Return value, decoded JSON, if it has the given shape; else raise LoadError.

    A shape is plain data: a type or a tuple of types, matched with
    isinstance, except that int does not match a JSON boolean (bool
    subclasses int); [shape] for an array; {field: shape} for an object,
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
    found = None
    if not all(map(isinstance, values, repeat(kind))):
        found = type(next(v for v in values if not isinstance(v, kind)))
    elif kind is int and bool in set(map(type, values)):  # bool subclasses int
        found = bool
    if found is not None:
        subject = f"{what} field {path!r}" if path else what
        raise LoadError(f"{subject} is {_json_type(found)}, not {_json_type(kind)}")
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


# a JSON escape of a UTF-16 surrogate: the one way valid JSON text decodes
# to a string that no UTF-8 file or cache key can encode, if it stands alone
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def decode_json(text: str, where: str):
    """json.loads, raising LoadError prefixed with where on bad input, an
    integer past Python's digit limit or a lone surrogate escape included."""
    try:
        value = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        return value
    except json.JSONDecodeError as exc:
        raise LoadError(f"{where}: not valid JSON ({exc.msg})") from exc
    except RecursionError as exc:  # valid JSON, but nested too deeply to decode
        raise LoadError(f"{where}: JSON nested too deeply") from exc
    except UnicodeEncodeError as exc:
        raise LoadError(f"{where}: JSON string holds a lone surrogate "
                        f"{exc.object[exc.start]!r}") from None
    except ValueError as exc:  # an integer with too many digits
        raise LoadError(f"{where}: JSON integer too long ({exc})") from None


def read_utf8(path: str | Path, where: str) -> str:
    """A whole UTF-8 file's text; other bytes raise LoadError prefixed with where."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LoadError(f"{where}: not UTF-8 text ({exc.reason})") from None


def json_lines(path: str | Path, prefix: str = "line "):
    """Yield (line number, object) per non-blank line of a JSON-lines file.

    Errors name the line as prefix + line number, and come in file order.
    """
    # each byte that is not UTF-8 is read as an escape, so the faults of
    # every line come out in order, whatever the size of a decode chunk;
    # an ASCII line, found in constant time, holds no escape
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            where = f"{prefix}{line_no}"
            if not line.isascii() and re.search("[\udc80-\udcff]", line):
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise LoadError(f"{where}: not UTF-8 text ({exc.reason})") from None
            if line.strip():
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
    tokens = _records(Token, zip(words, range(len(words)), sentence_ids))
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


def _records(cls, rows) -> tuple:
    """cls NamedTuples from rows of field values, with no Python call per row."""
    return tuple(map(tuple.__new__, repeat(cls), rows))


# ---------------------------------------------------------------------------
# Canonical interchange format

def document_to_record(doc: Document) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "id": doc.id,
        "text": doc.raw_text,
        "tokens": [t._asdict() for t in doc.tokens],
        "mentions": [m._asdict() for m in doc.mentions],
        "entities": [{"id": e.id, "mention_ids": sorted(e.mention_ids)} for e in doc.entities],
        "relations": [r._asdict() for r in doc.relations],
        "constraints": [asdict(c) for c in doc.constraints],
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
    mentions = get("mentions", ())
    return Document(
        id=record["id"],
        raw_text=record["text"],
        tokens=_records(Token, map(itemgetter("text", "index", "sentence_index"),
                                   get("tokens", ()))),
        mentions=_records(Mention, zip(map(itemgetter("id"), mentions),
                                       map(itemgetter("mention_type"), mentions),
                                       map(tuple, map(itemgetter("token_indices"), mentions)))),
        entities=tuple(
            Entity(e["id"], frozenset(e["mention_ids"])) for e in get("entities", ())
        ),
        relations=_records(Relation, map(itemgetter("id", "relation_type", "source_mention_id",
                                                    "target_mention_id"),
                                         get("relations", ()))),
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
    header_line = None
    for line_no, record in json_lines(path):
        if "schema" in record and "id" not in record:
            if header_line is not None:
                raise LoadError(f"line {line_no}: second schema header "
                                f"(the first is line {header_line})")
            header_line = line_no
            version = record.get("format_version")
            if version != FORMAT_VERSION:
                raise LoadError(f"line {line_no}: schema header has unsupported "
                                f"format_version {version!r}")
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
