"""Parsing and grounding of model output.

The output grammar is pipe-delimited, one record per line. Parsing is
total: malformed input becomes error accounting, never an exception.
Grounding maps surface strings back to token spans of the source
document: the first unused window, left to right, whose normalized text
matches.  ground_document grounds every item of a report through one
per-document index, which holds the document's normalized text and
finds each distinct normalized surface in it once, by string search.
Mention items share one used set, cluster members another, and the two
ends of each relation a fresh one.  ground_report, ground_clusters and
ground_relations are its per-task projections.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from operator import add, attrgetter
from typing import NamedTuple

from .corpus import (
    PHRASE_EDGES,
    Document,
    LoadError,
    SchemaDescriptor,
    check,
    normalize_phrase,
)


# parsed items, reports and grounded windows are NamedTuples: same
# fields, hash and repr as a frozen dataclass, and cheaper to build


class ParsedMention(NamedTuple):
    mention_type: str
    surface: str


class ParsedCluster(NamedTuple):
    surfaces: tuple


class ParsedRelation(NamedTuple):
    relation_type: str
    source_surface: str
    target_surface: str


class ParsedConstraint(NamedTuple):
    constraint_type: str
    negated: bool
    actions: tuple


class ErrorLine(NamedTuple):
    line_number: int
    raw: str
    reason: str


class ParseReport(NamedTuple):
    items: tuple
    error_lines: tuple
    ignored_line_count: int

    @property
    def error_count(self) -> int:
        return len(self.error_lines)


class GroundedMention(NamedTuple):
    mention_type: str
    token_indices: tuple
    matched_surface: str


class GroundedRelation(NamedTuple):
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


# same truth value as any(ch.isalnum() for ch in text)
_is_wordlike = re.compile(r"[^\W_]").search


def _wordlike(word: str) -> bool:
    # isalnum answers most words without the regex
    return word.isalnum() or _is_wordlike(word) is not None


_EDGE_CHARS = frozenset(PHRASE_EDGES)


class WindowIndex:
    """The normalized text of one document, searched once per surface.

    Each token is normalized once (case-folded, whitespace collapsed);
    the non-empty pieces joined by single spaces make the document's
    text, and each token's piece keeps its character offset in it.  A
    window's key, its pieces joined with edge punctuation stripped
    (normalize_phrase of the window's text), is a slice of that text, so
    each distinct normalized surface is found with str.find, once.  An
    occurrence is a window when it spans exactly the surface's width in
    tokens, its first and last tokens are wordlike, and only
    PHRASE_EDGES lie between its ends and those tokens' piece
    boundaries.  The starts found are ascending, so the first free
    start is the leftmost matching window; memory stays linear in the
    document and in the surfaces asked about.
    """

    def __init__(self, doc: Document):
        self.words = list(map(attrgetter("text"), doc.tokens))
        folded = list(map(str.casefold, self.words))
        joined = " ".join(folded)
        self._text = " ".join(joined.split())
        # each token's piece; the folded tokens themselves when none holds
        # whitespace beyond single inner spaces and none is empty
        pieces = self._pieces = (folded if self._text == joined
                                 else [" ".join(f.split()) for f in folded])
        # offset of each token's piece; an empty piece takes the offset
        # of the next non-empty one, so bisect finds a piece's owner
        self._offsets = list(accumulate(map(add, map(len, pieces), map(bool, pieces)),
                                        initial=0))
        self._by_text: dict = {}  # normalized text -> (starts, width)
        self._targets: dict = {}  # surface -> (starts, width)

    def _search(self, text: str) -> tuple:
        """(ascending starts, width) of the windows whose key is text."""
        if not text:
            return (), 0
        width = len(text.split())
        haystack, offsets, pieces, words = (self._text, self._offsets,
                                            self._pieces, self.words)
        size, length, tokens = len(text), len(haystack), len(words)
        starts = []
        at = haystack.find(text)
        while at >= 0:
            stop = at + size
            # an occurrence that starts or ends inside a word is no window
            if ((at == 0 or haystack[at - 1] in _EDGE_CHARS)
                    and (stop == length or haystack[stop] in _EDGE_CHARS)):
                first = bisect_right(offsets, at) - 1
                last = first + width - 1
                if last < tokens:
                    begin, end = offsets[first], offsets[last] + len(pieces[last])
                    if (offsets[last] < stop <= end
                            and _wordlike(words[first]) and _wordlike(words[last])
                            and (at == begin or not haystack[begin:at].strip(PHRASE_EDGES))
                            and (stop == end or not haystack[stop:end].strip(PHRASE_EDGES))):
                        starts.append(first)
            at = haystack.find(text, at + 1)
        return starts, width

    def find(self, surface: str, used_tokens: set):
        """The token span of the first window matching surface with no
        token in used_tokens, or None.

        The window's tokens are added to used_tokens.
        """
        target = self._targets.get(surface)
        if target is None:
            text = normalize_phrase(surface)
            if text not in self._by_text:
                self._by_text[text] = self._search(text)
            target = self._targets[surface] = self._by_text[text]
        starts, width = target
        for start in starts:
            if start in used_tokens:  # a window claimed before
                continue
            span = range(start, start + width)
            if used_tokens.isdisjoint(span):
                used_tokens.update(span)
                return tuple(span)
        return None

    def ground(self, mention_type: str, surface: str, used_tokens: set):
        """A GroundedMention for the window find claims, or None."""
        span = self.find(surface, used_tokens)
        if span is None:
            return None
        return GroundedMention(mention_type, span,
                               " ".join(self.words[span[0]:span[-1] + 1]))


class Grounding(NamedTuple):
    """Every item of one parse report grounded over one document."""
    mentions: list  # a GroundedMention per grounded ParsedMention
    ungrounded_mentions: list  # the ParsedMention items that found no window
    clusters: list  # each cluster's grounded members, a tuple
    ungrounded_surfaces: list  # the cluster surfaces that found no window
    relations: list  # a GroundedRelation per relation; None for an end not found


def ground_document(report: ParseReport, doc: Document) -> Grounding:
    """Ground every mention, cluster and relation item of report in one
    pass over one WindowIndex; constraint items need no grounding."""
    index = WindowIndex(doc)
    mention_used: set = set()
    cluster_used: set = set()
    out = Grounding([], [], [], [], [])
    for item in report.items:
        if isinstance(item, ParsedMention):
            hit = index.ground(item.mention_type, item.surface, mention_used)
            if hit is None:
                out.ungrounded_mentions.append(item)
            else:
                out.mentions.append(hit)
        elif isinstance(item, ParsedCluster):
            members: list = []
            for surface in item.surfaces:
                hit = index.ground("entity", surface, cluster_used)
                if hit is None:
                    out.ungrounded_surfaces.append(surface)
                else:
                    members.append(hit)
            out.clusters.append(tuple(members))
        elif isinstance(item, ParsedRelation):
            used: set = set()  # the two ends of one relation never overlap
            source = index.find(item.source_surface, used)
            target = index.find(item.target_surface, used)
            out.relations.append(GroundedRelation(
                item.relation_type, source, item.source_surface,
                target, item.target_surface))
    return out


def ground_report(report: ParseReport, doc: Document):
    """The mention part of ground_document: (grounded, ungrounded)."""
    grounding = ground_document(report, doc)
    return grounding.mentions, grounding.ungrounded_mentions


def ground_clusters(report: ParseReport, doc: Document):
    """The cluster part of ground_document: (clusters, ungrounded surfaces)."""
    grounding = ground_document(report, doc)
    return grounding.clusters, grounding.ungrounded_surfaces


def ground_relations(report: ParseReport, doc: Document):
    """The relation part of ground_document: one GroundedRelation per item."""
    return ground_document(report, doc).relations


class ItemKind(NamedTuple):
    """A predictions-record item kind: the parsed class, the task whose
    items it holds, and its record shape with the keys in field order."""
    cls: type
    task: str
    shape: dict


ITEM_KINDS = {
    "mention": ItemKind(ParsedMention, "MD", {"type": str, "surface": str}),
    "cluster": ItemKind(ParsedCluster, "ER", {"surfaces": [str]}),
    "relation": ItemKind(ParsedRelation, "RE", {"type": str, "source": str, "target": str}),
    "constraint": ItemKind(ParsedConstraint, "CE",
                           {"type": str, "negated": bool, "actions": [str]}),
}

# parsed class -> (kind, record keys in field order)
_RECORD_KEYS = {k.cls: (kind, tuple(k.shape)) for kind, k in ITEM_KINDS.items()}


def item_to_record(item) -> dict:
    """The JSON record of a parsed item; json writes its tuples as arrays."""
    try:
        kind, keys = _RECORD_KEYS[type(item)]
    except KeyError:
        raise TypeError(f"not a parsed item: {item!r}") from None
    return dict(zip(keys, item), kind=kind)


def item_from_record(record: dict, what: str = "item"):
    """Inverse of item_to_record, for reloading persisted predictions.

    A record that does not fit its kind's shape raises LoadError, with
    what as the message prefix.
    """
    kind = check(record, {"kind": str}, what)["kind"]
    if kind not in ITEM_KINDS:
        raise LoadError(f"{what} has unknown kind {kind!r}")
    cls, _, shape = ITEM_KINDS[kind]
    r = check(record, shape, f"{what} ({kind})")
    return cls(*(tuple(r[key]) if type(r[key]) is list else r[key] for key in shape))
