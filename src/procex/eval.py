"""Precision/recall/F1 scoring for the four extraction tasks.

Each scorer maps every prediction and gold item to a match key, and
the correct count is the sum over keys of min(predicted, gold). Every
task's match predicate is equality on its key, so this equals the size
of a maximum one-to-one matching between predictions and gold items:
within one key any pairing is admissible, and across keys none is.
Under exact_span an ungrounded prediction keys its span as None, which
equals no gold span, so it counts as predicted but never matches.
Aggregation across documents is micro: counts are summed first, then
the formulas applied once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

from .corpus import (
    MATCH_POLICY_VALUES,
    Document,
    Mention,
    SchemaDescriptor,
    normalize_phrase,
    normalize_type_name,
)
from .parser import GroundedMention


@dataclass(frozen=True)
class ConfusionCounts:
    correct: int = 0
    predicted: int = 0
    gold: int = 0

    def __post_init__(self):
        if not 0 <= self.correct <= min(self.predicted, self.gold):
            raise ValueError(f"inconsistent counts: {self}")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.correct + other.correct,
            self.predicted + other.predicted,
            self.gold + other.gold,
        )


@dataclass(frozen=True)
class TaskScores:
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts


@dataclass(frozen=True)
class MatchPolicy:
    span_mode: str = "exact_span"
    type_sensitive: bool = True
    constraint_normalization: str = "verbatim"

    def __post_init__(self):
        for name, allowed in MATCH_POLICY_VALUES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")

    @classmethod
    def from_schema(cls, schema: SchemaDescriptor) -> "MatchPolicy":
        raw = schema.match_policy
        return cls(**{f.name: raw[f.name] for f in fields(cls) if f.name in raw})


def scores_from_counts(counts: ConfusionCounts) -> TaskScores:
    """Apply the P/R/F1 formulas with the zero-denominator convention.

    A document with nothing predicted and nothing to find scores
    perfectly; otherwise an empty side scores zero.
    """
    if counts.predicted == 0:
        precision = 1.0 if counts.gold == 0 else 0.0
    else:
        precision = counts.correct / counts.predicted
    if counts.gold == 0:
        recall = 1.0 if counts.predicted == 0 else 0.0
    else:
        recall = counts.correct / counts.gold
    if precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return TaskScores(precision=precision, recall=recall, f1=f1, counts=counts)


def aggregate(per_doc: list) -> TaskScores:
    """Micro-aggregate per-document counts. No documents means zero scores."""
    if not per_doc:
        return TaskScores(0.0, 0.0, 0.0, ConfusionCounts(0, 0, 0))
    total = ConfusionCounts(0, 0, 0)
    for c in per_doc:
        total = total + c
    return scores_from_counts(total)


def _score_by_key(pred_keys: list, gold_keys: list) -> TaskScores:
    matched = Counter(pred_keys) & Counter(gold_keys)
    return scores_from_counts(
        ConfusionCounts(sum(matched.values()), len(pred_keys), len(gold_keys))
    )


def _type_keys(names, policy: MatchPolicy) -> dict:
    """Each distinct type name's key: normalized, or None when type-blind."""
    names = set(names)
    if not policy.type_sensitive:
        return dict.fromkeys(names)
    return {name: normalize_type_name(name) for name in names}


def _pred_span_key(indices, surface: str, policy: MatchPolicy):
    """Token indices under exact_span (None when ungrounded), else text."""
    if policy.span_mode == "exact_span":
        return indices
    return normalize_phrase(surface)


def _gold_span_key(mention: Mention, doc: Document, policy: MatchPolicy):
    if policy.span_mode == "exact_span":
        return tuple(mention.token_indices)
    return normalize_phrase(doc.surface(mention))


# ---------------------------------------------------------------------------
# MD

def score_md(pred: list, gold: list, policy: MatchPolicy | None = None,
             doc: Document | None = None) -> TaskScores:
    """Score mention predictions (grounded and ungrounded together)."""
    policy = policy or MatchPolicy()
    if policy.span_mode == "text_match" and doc is None:
        raise ValueError("text_match scoring needs the source document")

    type_key = _type_keys([p.mention_type for p in pred]
                          + [g.mention_type for g in gold], policy)

    def pred_key(p):
        grounded = isinstance(p, GroundedMention)
        return (type_key[p.mention_type],
                _pred_span_key(p.token_indices if grounded else None,
                               p.matched_surface if grounded else p.surface,
                               policy))

    gold_keys = [
        (type_key[g.mention_type], _gold_span_key(g, doc, policy))
        for g in gold
    ]
    return _score_by_key([pred_key(p) for p in pred], gold_keys)


# ---------------------------------------------------------------------------
# ER

def score_er(pred_clusters: list, gold: list, doc: Document) -> TaskScores:
    """Score clusters of GroundedMention by exact span-set equality.

    gold is the document's declared entity list; mentions outside any
    declared entity are counted as singleton entities.
    """
    mmap = doc.mention_map()
    declared = [
        frozenset(mmap[mid].token_indices for mid in e.mention_ids) for e in gold
    ]
    clustered = {mid for e in gold for mid in e.mention_ids}
    declared.extend(
        frozenset([m.token_indices]) for m in doc.mentions if m.id not in clustered
    )
    return _score_by_key(
        [frozenset(m.token_indices for m in c) for c in pred_clusters], declared
    )


# ---------------------------------------------------------------------------
# RE

def score_re(pred: list, gold: list, doc: Document,
             policy: MatchPolicy | None = None) -> TaskScores:
    """Score directed relations; reversed endpoints do not count."""
    policy = policy or MatchPolicy()
    mmap = doc.mention_map()
    type_key = _type_keys([r.relation_type for r in (*pred, *gold)], policy)

    pred_keys = [
        (type_key[p.relation_type],
         _pred_span_key(p.source_indices, p.source_surface, policy),
         _pred_span_key(p.target_indices, p.target_surface, policy))
        for p in pred
    ]
    gold_keys = [
        (type_key[g.relation_type],
         _gold_span_key(mmap[g.source_mention_id], doc, policy),
         _gold_span_key(mmap[g.target_mention_id], doc, policy))
        for g in gold
    ]
    return _score_by_key(pred_keys, gold_keys)


# ---------------------------------------------------------------------------
# CE

_DETERMINERS = {
    "the", "a", "an", "this", "that", "these", "those", "every", "each",
    "any", "some", "all", "its", "his", "her", "their", "our", "your", "my",
}
_AUXILIARIES = {
    "am", "is", "are", "was", "were", "be", "been", "being", "do", "does",
    "did", "have", "has", "had", "will", "would", "shall", "should", "may",
    "might", "must", "can", "could", "not", "to",
}


def normalize_action(text: str, mode: str) -> object:
    if mode == "verbatim":
        return " ".join(text.split())
    words = [
        w for w in normalize_phrase(text).split()
        if w not in _DETERMINERS and w not in _AUXILIARIES
    ]
    return frozenset(words)


def score_constraints(pred: list, gold: list,
                      policy: MatchPolicy | None = None) -> TaskScores:
    mode = (policy or MatchPolicy()).constraint_normalization

    def key(constraint_type: str, negated: bool, actions) -> tuple:
        return (normalize_type_name(constraint_type), negated,
                tuple(normalize_action(a, mode) for a in actions))

    pred_keys = [key(p.constraint_type, p.negated, p.actions) for p in pred]
    gold_keys = [
        key(g.constraint_type, g.negated,
            (g.first_action,) if g.second_action is None
            else (g.first_action, g.second_action))
        for g in gold
    ]
    return _score_by_key(pred_keys, gold_keys)
