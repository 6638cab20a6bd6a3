"""Parsing and grounding of model output.

The output grammar is pipe-delimited, one record per line. Parsing is
total: malformed input becomes error accounting, never an exception.
Grounding maps surface strings back to token spans of the source
document: the first unused window, left to right, whose normalized text
matches.  A per-document window index finds the candidate windows
without rescanning the document for every surface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import (
    Document,
    LoadError,
    SchemaDescriptor,
    check,
    normalize_phrase,
)


@dataclass(frozen=True)
class ParsedMention:
    mention_type: str
    surface: str


@dataclass(frozen=True)
class ParsedCluster:
    surfaces: tuple


@dataclass(frozen=True)
class ParsedRelation:
    relation_type: str
    source_surface: str
    target_surface: str


@dataclass(frozen=True)
class ParsedConstraint:
    constraint_type: str
    negated: bool
    actions: tuple


@dataclass(frozen=True)
class ErrorLine:
    line_number: int
    raw: str
    reason: str


@dataclass(frozen=True)
class ParseReport:
    items: tuple
    error_lines: tuple
    ignored_line_count: int

    @property
    def error_count(self) -> int:
        return len(self.error_lines)


@dataclass(frozen=True)
class GroundedMention:
    mention_type: str
    token_indices: tuple
    matched_surface: str


@dataclass(frozen=True)
class GroundedRelation:
    relation_type: str
    source_indices: tuple | None
    source_surface: str
    target_indices: tuple | None
    target_surface: str


_HEADER = re.compile(r"[A-Za-z][^|]{0,59}:")

BAD_FIELD_COUNT = "bad field count"
UNKNOWN_TYPE = "unknown type"
EMPTY_FIELD = "empty field"
BAD_NEGATION = "bad negation flag"


def _try_parse(line: str, task: str, schema: SchemaDescriptor):
    """Return (item, None) when the line conforms, else (None, reason)."""
    fields = [f.strip() for f in line.split("|")]
    if task == "MD":
        if len(fields) != 2:
            return None, BAD_FIELD_COUNT
        mtype = schema.canonical_mention_type(fields[0])
        if mtype is None:
            return None, UNKNOWN_TYPE
        if not fields[1]:
            return None, EMPTY_FIELD
        return ParsedMention(mtype, fields[1]), None
    if task == "ER":
        if len(fields) < 2:
            return None, BAD_FIELD_COUNT
        if fields[0].casefold() != "entity":
            return None, UNKNOWN_TYPE
        if any(not f for f in fields[1:]):
            return None, EMPTY_FIELD
        return ParsedCluster(tuple(fields[1:])), None
    if task == "RE":
        if len(fields) != 3:
            return None, BAD_FIELD_COUNT
        rtype = schema.canonical_relation_type(fields[0])
        if rtype is None:
            return None, UNKNOWN_TYPE
        if not fields[1] or not fields[2]:
            return None, EMPTY_FIELD
        return ParsedRelation(rtype, fields[1], fields[2]), None
    if task == "CE":
        if len(fields) not in (3, 4):
            return None, BAD_FIELD_COUNT
        ctype = schema.canonical_constraint_type(fields[0])
        if ctype is None:
            return None, UNKNOWN_TYPE
        expected = 3 if schema.is_unary(ctype) else 4
        if len(fields) != expected:
            return None, BAD_FIELD_COUNT
        flag = fields[1].casefold()
        if flag not in ("", "not"):
            return None, BAD_NEGATION
        actions = fields[2:]
        if any(not a for a in actions):
            return None, EMPTY_FIELD
        return ParsedConstraint(ctype, flag == "not", tuple(actions)), None
    raise ValueError(f"unknown task {task!r}")


def parse(raw: str, task: str, schema: SchemaDescriptor) -> ParseReport:
    """Parse a raw model response into items, errors, and ignored lines.

    Blank lines, prose sections opened by header lines such as
    ``Facts:`` or ``Reflection:``, and any preamble before the first
    conforming line (when one exists) are ignored. Everything else
    either parses or is recorded as an error with a reason.
    """
    lines = raw.splitlines()
    attempts = [_try_parse(line, task, schema) for line in lines]
    any_conform = any(item is not None for item, _ in attempts)

    items: list = []
    errors: list = []
    ignored = 0
    in_prose = False
    seen_item = False
    for number, (line, (item, reason)) in enumerate(zip(lines, attempts), start=1):
        stripped = line.strip()
        if not stripped:
            ignored += 1
            continue
        if item is not None:
            items.append(item)
            in_prose = False
            seen_item = True
            continue
        if _HEADER.fullmatch(stripped):
            in_prose = True
            ignored += 1
            continue
        if in_prose or (not seen_item and any_conform):
            ignored += 1
            continue
        errors.append(ErrorLine(number, line, reason))
    return ParseReport(items=tuple(items), error_lines=tuple(errors),
                       ignored_line_count=ignored)


def _is_wordlike(text: str) -> bool:
    return any(ch.isalnum() for ch in text)


class WindowIndex:
    """The token windows of one document, keyed by normalized text.

    Windows of one width are indexed the first time a surface of that
    width is grounded; only windows whose first and last tokens are
    wordlike go in.  Each key maps to its start positions in ascending
    order, so the first free start is the leftmost matching window.
    """

    def __init__(self, doc: Document):
        self.words = [t.text for t in doc.tokens]
        self.wordlike = [_is_wordlike(w) for w in self.words]
        self._by_width: dict = {}

    def _starts(self, target: str, width: int):
        table = self._by_width.get(width)
        if table is None:
            table = {}
            words, wordlike = self.words, self.wordlike
            for start in range(len(words) - width + 1):
                if wordlike[start] and wordlike[start + width - 1]:
                    key = normalize_phrase(" ".join(words[start:start + width]))
                    table.setdefault(key, []).append(start)
            self._by_width[width] = table
        return table.get(target, ())

    def ground(self, parsed: ParsedMention, used_tokens: set):
        """Ground one surface to the first window with no token in used_tokens.

        The window's tokens are added to used_tokens.
        """
        target = normalize_phrase(parsed.surface)
        if not target:
            return None
        width = len(target.split())
        for start in self._starts(target, width):
            span = range(start, start + width)
            if used_tokens.isdisjoint(span):
                used_tokens.update(span)
                return GroundedMention(
                    mention_type=parsed.mention_type,
                    token_indices=tuple(span),
                    matched_surface=" ".join(self.words[start:start + width]),
                )
        return None


def ground(parsed: ParsedMention, doc: Document, used: set):
    """Ground one surface to the first unused matching token window.

    ``used`` is a set of token-index spans; the grounded span is added.
    """
    hit = WindowIndex(doc).ground(parsed, {i for span in used for i in span})
    if hit is not None:
        used.add(hit.token_indices)
    return hit


def ground_report(report: ParseReport, doc: Document):
    """Ground every ParsedMention item with one shared used set."""
    index = WindowIndex(doc)
    used: set = set()
    grounded: list = []
    ungrounded: list = []
    for item in report.items:
        if not isinstance(item, ParsedMention):
            continue
        hit = index.ground(item, used)
        if hit is None:
            ungrounded.append(item)
        else:
            grounded.append(hit)
    return grounded, ungrounded


def ground_clusters(report: ParseReport, doc: Document):
    """Ground ER clusters; all clusters share one used set."""
    index = WindowIndex(doc)
    used: set = set()
    clusters: list = []
    ungrounded: list = []
    for item in report.items:
        if not isinstance(item, ParsedCluster):
            continue
        members: list = []
        for surface in item.surfaces:
            hit = index.ground(ParsedMention("entity", surface), used)
            if hit is None:
                ungrounded.append(surface)
            else:
                members.append(hit)
        clusters.append(tuple(members))
    return clusters, ungrounded


def ground_relations(report: ParseReport, doc: Document):
    """Ground RE endpoints; each relation gets a fresh used set."""
    index = WindowIndex(doc)
    out: list = []
    for item in report.items:
        if not isinstance(item, ParsedRelation):
            continue
        used: set = set()
        src = index.ground(ParsedMention("", item.source_surface), used)
        tgt = index.ground(ParsedMention("", item.target_surface), used)
        out.append(
            GroundedRelation(
                relation_type=item.relation_type,
                source_indices=None if src is None else src.token_indices,
                source_surface=item.source_surface,
                target_indices=None if tgt is None else tgt.token_indices,
                target_surface=item.target_surface,
            )
        )
    return out


def item_to_record(item) -> dict:
    if isinstance(item, ParsedMention):
        return {"kind": "mention", "type": item.mention_type, "surface": item.surface}
    if isinstance(item, ParsedCluster):
        return {"kind": "cluster", "surfaces": list(item.surfaces)}
    if isinstance(item, ParsedRelation):
        return {
            "kind": "relation",
            "type": item.relation_type,
            "source": item.source_surface,
            "target": item.target_surface,
        }
    if isinstance(item, ParsedConstraint):
        return {
            "kind": "constraint",
            "type": item.constraint_type,
            "negated": item.negated,
            "actions": list(item.actions),
        }
    raise TypeError(f"not a parsed item: {item!r}")


ITEM_SHAPES = {
    "mention": {"type": str, "surface": str},
    "cluster": {"surfaces": [str]},
    "relation": {"type": str, "source": str, "target": str},
    "constraint": {"type": str, "negated": bool, "actions": [str]},
}


def item_from_record(record: dict, what: str = "item"):
    """Inverse of item_to_record, for reloading persisted predictions.

    A record that does not fit its kind's shape raises LoadError, with
    what as the message prefix.
    """
    kind = check(record, {"kind": str}, what)["kind"]
    if kind not in ITEM_SHAPES:
        raise LoadError(f"{what} has unknown kind {kind!r}")
    r = check(record, ITEM_SHAPES[kind], f"{what} ({kind})")
    if kind == "mention":
        return ParsedMention(r["type"], r["surface"])
    if kind == "cluster":
        return ParsedCluster(tuple(r["surfaces"]))
    if kind == "relation":
        return ParsedRelation(r["type"], r["source"], r["target"])
    return ParsedConstraint(r["type"], r["negated"], tuple(r["actions"]))


def report_to_record(report: ParseReport) -> dict:
    return {
        "items": [item_to_record(i) for i in report.items],
        "error_lines": [
            {"line": e.line_number, "raw": e.raw, "reason": e.reason}
            for e in report.error_lines
        ],
        "error_count": report.error_count,
        "ignored_line_count": report.ignored_line_count,
    }
