"""Stub providers and the expectation calculator they are checked with.

The gold-echo stub answers a prompt with the target document's gold
annotations in the output grammar, with seeded damage planted into
some answers. The latency stub echoes gold undamaged after a fixed
sleep and fails a seeded share of first attempts with a transient
error.

The calculator works out, without calling procex's parser, grounding
or scorers, what every damaged answer must score: it applies the line
grammar and the left-to-right grounding rule documented in the
package README, and counts matches by key.
"""

from __future__ import annotations

import random
import re
import string
import threading
import time
from collections import Counter
from dataclasses import dataclass

from procex.llm import ChatResponse, TransientProviderError

TASK_MARKERS = {
    "MD": "one line per mention",
    "ER": "one line per entity",
    "RE": "one line per relation",
    "CE": "one line per constraint",
}

UNGROUNDABLE = "not in the text"
NO_DELIMITERS = "this line forgot its delimiters"


def norm_type(name: str) -> str:
    return " ".join(name.replace("_", " ").casefold().split())


def _norm_phrase(text: str) -> str:
    return " ".join(text.casefold().split()).strip(string.punctuation + string.whitespace)


def _surface(doc, mention) -> str:
    return " ".join(doc.tokens[i].text for i in mention.token_indices)


def gold_lines(doc, task: str) -> list:
    """Gold annotations as grammar lines, in an order that grounds back."""
    mentions = {m.id: m for m in doc.mentions}
    if task == "MD":
        return [f"{m.mention_type.lower()}|{_surface(doc, m)}"
                for m in sorted(doc.mentions, key=lambda m: m.token_indices[0])]
    if task == "ER":
        clustered = {mid for e in doc.entities for mid in e.mention_ids}
        groups = [sorted((mentions[mid] for mid in e.mention_ids),
                         key=lambda m: m.token_indices[0]) for e in doc.entities]
        groups += [[m] for m in doc.mentions if m.id not in clustered]
        groups.sort(key=lambda ms: ms[0].token_indices[0])
        return ["|".join(["entity"] + [_surface(doc, m) for m in ms]) for ms in groups]
    if task == "RE":
        return [f"{r.relation_type}|{_surface(doc, mentions[r.source_mention_id])}"
                f"|{_surface(doc, mentions[r.target_mention_id])}" for r in doc.relations]
    if task == "CE":
        return ["|".join([c.constraint_type, "not" if c.negated else "", c.first_action]
                         + ([c.second_action] if c.second_action is not None else []))
                for c in doc.constraints]
    raise ValueError(task)


# ---------------------------------------------------------------------------
# damage

@dataclass(frozen=True)
class Damage:
    drop_last: bool
    ungroundable: bool
    no_delimiters: bool
    unknown_type: bool


NO_DAMAGE = Damage(False, False, False, False)


def damage_plan(seed: int, dataset: str, doc_id: str, task: str) -> Damage:
    rng = random.Random(f"{seed}:{dataset}:{doc_id}:{task}")
    return Damage(rng.random() < 1 / 3, rng.random() < 1 / 4,
                  rng.random() < 1 / 5, rng.random() < 1 / 7)


def _unmatched_item(schema, task: str) -> str:
    if task == "MD":
        return f"{schema.mention_types[0].lower()}|{UNGROUNDABLE}"
    if task == "ER":
        return f"entity|{UNGROUNDABLE}"
    if task == "RE":
        return f"{schema.relation_types[0]}|{UNGROUNDABLE}|nowhere in the text"
    unary = {norm_type(u) for u in schema.unary_constraint_types}
    ctype = schema.constraint_types[0]
    if norm_type(ctype) in unary:
        return f"{ctype}||{UNGROUNDABLE}"
    return f"{ctype}||{UNGROUNDABLE}|nowhere in the text"


def damaged_response(doc, schema, task: str, damage: Damage) -> list:
    """The answer lines: gold, then the planted damage."""
    lines = gold_lines(doc, task)
    if damage.drop_last and len(lines) > 1:
        lines.pop()
    if damage.ungroundable:
        lines.append(_unmatched_item(schema, task))
    if damage.no_delimiters:
        lines.append(NO_DELIMITERS)
    if damage.unknown_type and lines:
        first_type, _, rest = lines[0].partition("|")
        lines[0] = f"{first_type}ish|{rest}"
    return lines


def prompt_target(prompt_text: str):
    """(task, target text) of a prompt built by procex.prompt.assemble."""
    task = next(t for t, mark in TASK_MARKERS.items() if mark in prompt_text)
    target = prompt_text.rsplit("Input: ", 1)[1]
    if not target.endswith("\nOutput:\n"):
        raise ValueError("prompt does not end with the output marker")
    return task, target[: -len("\nOutput:\n")]


class GoldEchoProvider:
    """Answers with gold lines plus the seeded damage for (doc, task).

    ``documents`` maps raw text to (dataset name, schema, document);
    ``seed`` None plants no damage.
    """

    def __init__(self, documents: dict, seed: int | None):
        self.documents = documents
        self.seed = seed

    def lines(self, prompt_text: str) -> list:
        task, target = prompt_target(prompt_text)
        dataset, schema, doc = self.documents[target]
        damage = NO_DAMAGE if self.seed is None else \
            damage_plan(self.seed, dataset, doc.id, task)
        return damaged_response(doc, schema, task, damage)

    def __call__(self, request) -> ChatResponse:
        return ChatResponse("\n".join(self.lines(request.prompt_text)), 0, 0, "gold-echo")


class LatencyProvider:
    """Undamaged gold echo behind a fixed sleep.

    The first attempt at each prompt text in ``failing`` raises
    TransientProviderError after the sleep. Counts its own calls,
    failures and busy seconds; a tracer, when given, gets a
    ``provider`` span per call.
    """

    def __init__(self, documents: dict, latency_s: float, failing: frozenset,
                 tracer=None):
        self.echo = GoldEchoProvider(documents, None)
        self.latency_s = latency_s
        self.failing = failing
        self.tracer = tracer
        self.calls = 0
        self.failures = 0
        self.busy_s = 0.0
        self._attempted: set = set()
        self._lock = threading.Lock()

    def _call(self, request) -> ChatResponse:
        start = time.perf_counter()
        time.sleep(self.latency_s)
        key = request.prompt_text
        with self._lock:
            self.calls += 1
            first = key not in self._attempted
            self._attempted.add(key)
            fail = first and key in self.failing
            if fail:
                self.failures += 1
            self.busy_s += time.perf_counter() - start
        if fail:
            raise TransientProviderError("planted transient failure")
        return self.echo(request)

    def __call__(self, request) -> ChatResponse:
        if self.tracer is None:
            return self._call(request)
        with self.tracer.span("provider.call", "provider"):
            return self._call(request)


# ---------------------------------------------------------------------------
# expectations

@dataclass(frozen=True)
class Expected:
    correct: int
    predicted: int
    gold: int
    errors: int
    ignored: int
    lines: int

    def __add__(self, other: "Expected") -> "Expected":
        return Expected(*(a + b for a, b in zip(self.__dict__.values(),
                                                 other.__dict__.values())))


ZERO = Expected(0, 0, 0, 0, 0, 0)

_HEADER = re.compile(r"[A-Za-z][^|]{0,59}:")


def _conforming(line: str, task: str, schema):
    """The line's fields when it conforms to the task's grammar, else None."""
    fields = [f.strip() for f in line.split("|")]
    known = {
        "MD": schema.mention_types, "RE": schema.relation_types,
        "CE": schema.constraint_types,
    }
    if task == "ER":
        if len(fields) < 2 or fields[0].casefold() != "entity":
            return None
        return fields if all(fields[1:]) else None
    types = {norm_type(t): t for t in known[task]}
    if norm_type(fields[0]) not in types:
        return None
    fields[0] = types[norm_type(fields[0])]
    if task == "MD":
        return fields if len(fields) == 2 and fields[1] else None
    if task == "RE":
        return fields if len(fields) == 3 and fields[1] and fields[2] else None
    unary = norm_type(fields[0]) in {norm_type(u) for u in schema.unary_constraint_types}
    if len(fields) != (3 if unary else 4) or fields[1].casefold() not in ("", "not"):
        return None
    return fields if all(fields[2:]) else None


def classify(lines: list, task: str, schema):
    """Split response lines into (items, error count, ignored count).

    Blank lines, header lines and the prose under them, and any
    preamble before the first conforming line are ignored; every other
    nonconforming line is an error.
    """
    parsed = [_conforming(line, task, schema) for line in lines]
    any_item = any(p is not None for p in parsed)
    items, errors, ignored = [], 0, 0
    in_prose = seen_item = False
    for line, fields in zip(lines, parsed):
        if not line.strip():
            ignored += 1
        elif fields is not None:
            items.append(fields)
            in_prose, seen_item = False, True
        elif _HEADER.fullmatch(line.strip()):
            in_prose = True
            ignored += 1
        elif in_prose or (not seen_item and any_item):
            ignored += 1
        else:
            errors += 1
    return items, errors, ignored


class _Grounder:
    """First unused matching window, scanning left to right."""

    def __init__(self, doc):
        self.texts = [t.text for t in doc.tokens]
        self.wordlike = [any(ch.isalnum() for ch in t.text) for t in doc.tokens]

    def ground(self, surface: str, used: set):
        target = _norm_phrase(surface)
        if not target:
            return None
        width = len(target.split())
        for start in range(len(self.texts) - width + 1):
            end = start + width
            if not (self.wordlike[start] and self.wordlike[end - 1]):
                continue
            if any(i in used for i in range(start, end)):
                continue
            if _norm_phrase(" ".join(self.texts[start:end])) != target:
                continue
            used.update(range(start, end))
            return tuple(range(start, end))
        return None


def _matched(pred_keys, gold_keys) -> int:
    pred = Counter(k for k in pred_keys if k is not None)
    return sum((pred & Counter(gold_keys)).values())


def expected_for(doc, schema, task: str, lines: list) -> Expected:
    """What procex must report for this answer to this document."""
    policy = dict(schema.match_policy)
    if policy.get("span_mode", "exact_span") != "exact_span" or \
            not policy.get("type_sensitive", True):
        raise ValueError("the calculator models exact-span, type-sensitive matching")
    items, errors, ignored = classify(lines, task, schema)
    mentions = {m.id: m for m in doc.mentions}
    if task in ("MD", "ER", "RE"):
        grounder = _Grounder(doc)
    if task == "MD":
        used: set = set()
        pred = []
        for mtype, surface in items:
            span = grounder.ground(surface, used)
            pred.append(None if span is None else (norm_type(mtype), span))
        gold = [(norm_type(m.mention_type), tuple(m.token_indices)) for m in doc.mentions]
    elif task == "ER":
        used = set()
        pred = []
        for fields in items:
            spans = (grounder.ground(s, used) for s in fields[1:])
            pred.append(frozenset(s for s in spans if s is not None))
        clustered = {mid for e in doc.entities for mid in e.mention_ids}
        gold = [frozenset(mentions[mid].token_indices for mid in e.mention_ids)
                for e in doc.entities]
        gold += [frozenset([m.token_indices]) for m in doc.mentions if m.id not in clustered]
    elif task == "RE":
        pred = []
        for rtype, source, target in items:
            used = set()
            src = grounder.ground(source, used)
            tgt = grounder.ground(target, used)
            pred.append(None if src is None or tgt is None else (norm_type(rtype), src, tgt))
        gold = [(norm_type(r.relation_type),
                 tuple(mentions[r.source_mention_id].token_indices),
                 tuple(mentions[r.target_mention_id].token_indices))
                for r in doc.relations]
    else:
        # the planted unmatched constraint shares no action with any gold
        # constraint, so verbatim keys count what lemma-like matching counts
        def key(ctype, negated, actions):
            return (norm_type(ctype), negated, tuple(" ".join(a.split()) for a in actions))

        pred = [key(f[0], f[1].casefold() == "not", f[2:]) for f in items]
        gold = [key(c.constraint_type, c.negated,
                    [c.first_action] + ([c.second_action] if c.second_action is not None else []))
                for c in doc.constraints]
    return Expected(correct=_matched(pred, gold), predicted=len(items), gold=len(gold),
                    errors=errors, ignored=ignored, lines=len(lines))


def scores(e: Expected) -> tuple:
    """(P, R, F1) with the package's zero-denominator convention."""
    p = (1.0 if e.gold == 0 else 0.0) if e.predicted == 0 else e.correct / e.predicted
    r = (1.0 if e.predicted == 0 else 0.0) if e.gold == 0 else e.correct / e.gold
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f1
