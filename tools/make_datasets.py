"""Build the shipped sample corpora under data/.

Emits a PET-layout export (45 documents over 5 domains x 9 story
shapes, including the doc-3.3 fixture used by the BPMN tests), plus
canonical-format constraint corpora (17 and 18 documents).

Every document is checked on construction:
  * schema validation is clean,
  * for each distinct mention surface, its normalized token windows in
    the document line up one-to-one with its gold spans in order, so
    left-to-right first-unused grounding reproduces gold exactly,
  * relation endpoints ground to their gold spans under a fresh
    used-set per relation.

Deterministic: no randomness, running it twice writes identical bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from procex import corpus
from procex.corpus import (
    Constraint,
    Dataset,
    Document,
    Entity,
    Mention,
    Relation,
    Token,
    normalize_phrase,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "data"


class Builder:
    """Assembles one document from words and typed spans."""

    def __init__(self, doc_id: str):
        self.doc_id = doc_id
        self.words: list[str] = []
        self.sids: list[int] = []
        self.sent = 0
        self.spans: list[tuple[str, str, tuple[int, ...]]] = []  # (key, type, span)
        self.clusters: list[tuple[str, ...]] = []
        self.rels: list[tuple[str, str, str]] = []
        self.cons: list[tuple[str, bool, str, str | None]] = []

    def w(self, text: str) -> None:
        for tok in text.split():
            self.words.append(tok)
            self.sids.append(self.sent)

    def m(self, text: str, mtype: str, key: str) -> str:
        start = len(self.words)
        self.w(text)
        self.spans.append((key, mtype, tuple(range(start, len(self.words)))))
        return key

    def s(self, punct: str = ".") -> None:
        self.w(punct)
        self.sent += 1

    def ent(self, *keys: str) -> None:
        self.clusters.append(keys)

    def rel(self, rtype: str, src: str, tgt: str) -> None:
        self.rels.append((rtype, src, tgt))

    def con(self, ctype: str, first: str, second: str | None = None, negated: bool = False) -> None:
        self.cons.append((ctype, negated, first, second))

    def doc(self) -> Document:
        assert self.spans == sorted(self.spans, key=lambda s: s[2][0]), self.doc_id
        ids = {key: f"m{i}" for i, (key, _, _) in enumerate(self.spans)}
        tokens = tuple(Token(w, i, s) for i, (w, s) in enumerate(zip(self.words, self.sids)))
        mentions = tuple(
            Mention(ids[key], mtype, span) for key, mtype, span in self.spans
        )
        entities = tuple(
            Entity(f"e{i}", frozenset(ids[k] for k in keys))
            for i, keys in enumerate(self.clusters)
        )
        relations = tuple(
            Relation(f"r{i}", rtype, ids[s], ids[t])
            for i, (rtype, s, t) in enumerate(self.rels)
        )
        constraints = tuple(
            Constraint(f"c{i}", ctype, neg, first, second)
            for i, (ctype, neg, first, second) in enumerate(self.cons)
        )
        return Document(
            id=self.doc_id,
            raw_text=" ".join(self.words),
            tokens=tokens,
            mentions=mentions,
            entities=entities,
            relations=relations,
            constraints=constraints,
        )


# ---------------------------------------------------------------------------
# Grounding oracle used to vet the data

def surface_windows(words: list[str], surface: str) -> list[tuple[int, ...]]:
    target = normalize_phrase(surface)
    k = len(target.split())
    out = []
    for i in range(len(words) - k + 1):
        if normalize_phrase(" ".join(words[i:i + k])) == target:
            out.append(tuple(range(i, i + k)))
    return out


def check_groundable(doc: Document) -> None:
    """Assert that grounding doc's gold lines gives back its gold spans.

    That holds when no two mentions share a token, each surface's token
    windows are its mentions' spans in the order the ER lines list them
    (which, with disjoint mentions, is also text order), and each
    relation's ends ground first-match to its mentions.
    """
    words = [t.text for t in doc.tokens]
    taken = [i for m in doc.mentions for i in m.token_indices]
    assert len(taken) == len(set(taken)), f"{doc.id}: mentions share a token"
    by_surface: dict[str, list[tuple[int, ...]]] = {}
    for members in doc.clusters(doc.mentions):
        for m in members:
            by_surface.setdefault(normalize_phrase(doc.surface(m)), []).append(
                m.token_indices)
    for surface, spans in by_surface.items():
        windows = surface_windows(words, surface)
        assert windows == spans, (
            f"{doc.id}: surface {surface!r} has windows {windows} but gold spans {spans}"
        )
    mmap = doc.mention_map()
    for r in doc.relations:
        used: list[tuple[int, ...]] = []
        for mid in (r.source_mention_id, r.target_mention_id):
            gold = mmap[mid]
            hit = next(
                w for w in surface_windows(words, doc.surface(gold))
                if not any(set(w) & set(u) for u in used)
            )
            assert hit == gold.token_indices, (
                f"{doc.id}: relation {r.id} endpoint {mid} grounds to {hit}, "
                f"gold {gold.token_indices}"
            )
            used.append(hit)


# ---------------------------------------------------------------------------
# PET-style stories

DOMAINS = {
    1: dict(ind="an order", defn="the order", file2="the packing list", out1="a shipment",
            dept="the warehouse staff", a1="a sales clerk", a1b="the clerk",
            a1c="the sales team", a2="the buyer", a2alt="this buyer",
            cond1="the data is complete", cond2="the total is high",
            c9a="the seal is intact", c9b="the seal is broken"),
    2: dict(ind="a ticket", defn="the ticket", file2="the error log", out1="a patch",
            dept="the service desk", a1="a support agent", a1b="the agent",
            a1c="the support team", a2="the reporter", a2alt="this reporter",
            cond1="the issue is minor", cond2="the outage is severe",
            c9a="the fix is ready", c9b="the fix is failing"),
    3: dict(ind="a claim", defn="the claim", file2="the file", out1="a payment",
            dept="the records office", a1="a claims officer", a1b="the officer",
            a1c="the claims team", a2="the customer", a2alt="this customer",
            cond1="the form is valid", cond2="the damage is large",
            c9a="the proof is given", c9b="the proof is missing"),
    4: dict(ind="an invoice", defn="the invoice", file2="the ledger", out1="a transfer",
            dept="the audit group", a1="a billing clerk", a1b="the bookkeeper",
            a1c="the finance team", a2="the vendor", a2alt="this vendor",
            cond1="the amount is correct", cond2="the balance is overdue",
            c9a="the sum is right", c9b="the sum is wrong"),
    5: dict(ind="an application", defn="the application", file2="the resume", out1="an offer",
            dept="the hiring panel", a1="a recruiter", a1b="the coordinator",
            a1c="the hiring team", a2="the candidate", a2alt="this candidate",
            cond1="the profile is strong", cond2="the deadline is near",
            c9a="the visa is granted", c9b="the visa is denied"),
}

ACT = "Activity"
ACTOR = "Actor"
DATA = "Activity Data"
FSPEC = "Further Specification"
XOR = "XOR Gateway"
AND = "AND Gateway"
COND = "Condition Specification"


def cap(phrase: str) -> str:
    return phrase[0].upper() + phrase[1:]


def story1(b: Builder, v: dict) -> None:
    b.m(cap(v["a1"]), ACTOR, "a1")
    b.m("receives", ACT, "t1")
    b.m(v["ind"], DATA, "d1")
    b.w("and")
    b.m("stores", ACT, "t2")
    b.m("it", DATA, "d2")
    b.s()
    b.w("Later")
    b.m("he", ACTOR, "a2")
    b.m("forwards", ACT, "t3")
    b.m("the record", DATA, "d3")
    b.w("to")
    b.m(v["a2"], ACTOR, "b1")
    b.s()
    b.ent("a1", "a2")
    b.ent("d1", "d2", "d3")
    b.rel("flow", "t1", "t2")
    b.rel("flow", "t2", "t3")
    b.rel("actor performer", "t1", "a1")
    b.rel("actor performer", "t2", "a1")
    b.rel("actor performer", "t3", "a2")
    b.rel("uses", "t1", "d1")
    b.rel("uses", "t2", "d2")
    b.rel("uses", "t3", "d3")
    b.rel("actor recipient", "t3", "b1")


def story2(b: Builder, v: dict) -> None:
    b.m(cap(v["a1"]), ACTOR, "a1")
    b.m("checks", ACT, "t1")
    b.m(v["ind"], DATA, "d1")
    b.s()
    b.m("In the meantime", AND, "g1")
    b.w(",")
    b.m(v["a1b"], ACTOR, "a2")
    b.m("updates", ACT, "t2")
    b.m(v["file2"], DATA, "d2")
    b.s()
    b.w("Afterwards")
    b.m("the results", DATA, "d3")
    b.w("are")
    b.m("merged", ACT, "t3")
    b.s()
    b.ent("a1", "a2")
    b.rel("flow", "g1", "t1")
    b.rel("flow", "g1", "t2")
    b.rel("flow", "t1", "t3")
    b.rel("flow", "t2", "t3")
    b.rel("actor performer", "t1", "a1")
    b.rel("actor performer", "t2", "a2")
    b.rel("uses", "t1", "d1")
    b.rel("uses", "t2", "d2")
    b.rel("uses", "t3", "d3")


def story3(b: Builder, v: dict) -> None:
    # the doc-3.3 shape: two participants, one exclusive decision
    b.w("When")
    b.m(v["ind"], DATA, "d1")
    b.w("arrives ,")
    b.m(v["a1"], ACTOR, "a1")
    b.m("registers", ACT, "t1")
    b.m("it", DATA, "d2")
    b.s()
    b.m("He", ACTOR, "a_he")
    b.w("then")
    b.m("examines", ACT, "t2")
    b.m(v["file2"], DATA, "d3")
    b.s()
    b.m("If", XOR, "g1")
    b.m(v["cond1"], COND, "c1")
    b.w(",")
    b.m(v["a1b"], ACTOR, "a3")
    b.m("approves", ACT, "t3")
    b.m(v["out1"], DATA, "d4")
    b.s()
    b.m("Otherwise", XOR, "g2")
    b.w(",")
    b.m(v["a1c"], ACTOR, "a4")
    b.m("informs", ACT, "t4")
    b.m(v["a2"], ACTOR, "a5")
    b.w(", and")
    b.m(v["defn"], DATA, "d5")
    b.w("is")
    b.m("sent back", ACT, "t5")
    b.s()
    b.ent("a1", "a_he", "a3", "a4")
    b.ent("d1", "d2", "d5")
    b.rel("flow", "t1", "t2")
    b.rel("flow", "t2", "g1")
    b.rel("flow", "g1", "c1")
    b.rel("flow", "c1", "t3")
    b.rel("flow", "g2", "t4")
    b.rel("flow", "t4", "t5")
    b.rel("same gateway", "g1", "g2")
    b.rel("actor performer", "t1", "a1")
    b.rel("actor performer", "t2", "a_he")
    b.rel("actor performer", "t3", "a3")
    b.rel("actor performer", "t4", "a4")
    b.rel("actor recipient", "t4", "a5")
    b.rel("uses", "t1", "d2")
    b.rel("uses", "t2", "d3")
    b.rel("uses", "t3", "d4")
    b.rel("uses", "t5", "d5")
    # t5 has no performer on purpose: consolidation will pick the nearest
    # actor to its left, which is the other participant


def story4(b: Builder, v: dict) -> None:
    b.m(cap(v["dept"]), ACTOR, "a1")
    b.m("prints", ACT, "t1")
    b.m(v["ind"], DATA, "d1")
    b.w(",")
    b.m("signs", ACT, "t2")
    b.m(v["file2"], DATA, "d2")
    b.w(", and")
    b.m("archives", ACT, "t3")
    b.m(v["out1"], DATA, "d3")
    b.s()
    b.rel("flow", "t1", "t2")
    b.rel("flow", "t2", "t3")
    b.rel("actor performer", "t1", "a1")
    b.rel("actor performer", "t2", "a1")
    b.rel("actor performer", "t3", "a1")
    b.rel("uses", "t1", "d1")
    b.rel("uses", "t2", "d2")
    b.rel("uses", "t3", "d3")


def story5(b: Builder, v: dict) -> None:
    b.w("When")
    b.m(v["ind"], DATA, "d1")
    b.w("arrives ,")
    b.m(v["a1"], ACTOR, "a1")
    b.m("screens", ACT, "t1")
    b.m("it", DATA, "d2")
    b.s()
    b.m("If", XOR, "g1")
    b.m(v["cond2"], COND, "c1")
    b.w(",")
    b.m(v["a1b"], ACTOR, "a2")
    b.m("escalates", ACT, "t2")
    b.m("the case", DATA, "d3")
    b.s()
    b.ent("a1", "a2")
    b.ent("d1", "d2")
    b.rel("flow", "t1", "g1")
    b.rel("flow", "g1", "c1")
    b.rel("flow", "c1", "t2")
    b.rel("condition specification", "g1", "c1")
    b.rel("actor performer", "t1", "a1")
    b.rel("actor performer", "t2", "a2")
    b.rel("uses", "t1", "d2")
    b.rel("uses", "t2", "d3")


def story6(b: Builder, v: dict) -> None:
    b.m(cap(v["a1"]), ACTOR, "a1")
    b.m("drafts", ACT, "t1")
    b.m("a report", DATA, "d1")
    b.w("for")
    b.m(v["a2"], ACTOR, "b1")
    b.s()
    b.w("Then")
    b.m(v["a2alt"], ACTOR, "b2")
    b.m("reviews", ACT, "t2")
    b.m("the summary", DATA, "d2")
    b.s()
    b.ent("b1", "b2")
    b.ent("d1", "d2")
    b.rel("flow", "t1", "t2")
    b.rel("actor performer", "t1", "a1")
    b.rel("actor recipient", "t1", "b1")
    b.rel("actor performer", "t2", "b2")
    b.rel("uses", "t1", "d1")
    b.rel("uses", "t2", "d2")


def story7(b: Builder, v: dict) -> None:
    b.m(cap(v["a1c"]), ACTOR, "a1")
    b.m("validates", ACT, "t1")
    b.m(v["ind"], DATA, "d1")
    b.m("by hand", FSPEC, "f1")
    b.s()
    b.w("Afterwards")
    b.m("it", ACTOR, "a2")
    b.m("notifies", ACT, "t2")
    b.m(v["a2"], ACTOR, "b1")
    b.m("in writing", FSPEC, "f2")
    b.s()
    b.ent("a1", "a2")
    b.rel("flow", "t1", "t2")
    b.rel("actor performer", "t1", "a1")
    b.rel("actor performer", "t2", "a2")
    b.rel("actor recipient", "t2", "b1")
    b.rel("uses", "t1", "d1")


def story8(b: Builder, v: dict) -> None:
    b.w("First")
    b.m(v["ind"], DATA, "d1")
    b.w("is")
    b.m("opened", ACT, "t1")
    b.w("by")
    b.m(v["a1b"], ACTOR, "a1")
    b.s()
    b.w("Next")
    b.m("the details", DATA, "d2")
    b.w("are")
    b.m("verified", ACT, "t2")
    b.s()
    b.w("Then")
    b.m("the totals", DATA, "d3")
    b.w("are")
    b.m("computed", ACT, "t3")
    b.s()
    b.w("Finally")
    b.m("the case", DATA, "d4")
    b.w("is")
    b.m("closed", ACT, "t4")
    b.s()
    b.rel("flow", "t1", "t2")
    b.rel("flow", "t2", "t3")
    b.rel("flow", "t3", "t4")
    b.rel("actor performer", "t1", "a1")
    b.rel("uses", "t1", "d1")
    b.rel("uses", "t2", "d2")
    b.rel("uses", "t3", "d3")
    b.rel("uses", "t4", "d4")


def story9(b: Builder, v: dict) -> None:
    b.m("If", XOR, "g1")
    b.m(v["c9a"], COND, "c1")
    b.w(",")
    b.m(v["a1b"], ACTOR, "a1")
    b.m("accepts", ACT, "t1")
    b.m("the item", DATA, "d1")
    b.s()
    b.m("Whenever", XOR, "g2")
    b.m(v["c9b"], COND, "c2")
    b.w(",")
    b.m(v["a1c"], ACTOR, "a2")
    b.m("discards", ACT, "t2")
    b.m("the batch", DATA, "d2")
    b.s()
    b.rel("same gateway", "g1", "g2")
    b.rel("flow", "g1", "c1")
    b.rel("flow", "c1", "t1")
    b.rel("flow", "g2", "c2")
    b.rel("flow", "c2", "t2")
    b.rel("actor performer", "t1", "a1")
    b.rel("actor performer", "t2", "a2")
    b.rel("uses", "t1", "d1")
    b.rel("uses", "t2", "d2")


STORIES = [story1, story2, story3, story4, story5, story6, story7, story8, story9]


def build_pet() -> Dataset:
    schema = corpus.load_schema("pet")
    docs = []
    for dom in sorted(DOMAINS):
        for si, story in enumerate(STORIES, start=1):
            b = Builder(f"doc-{dom}.{si}")
            story(b, DOMAINS[dom])
            doc = b.doc()
            problems = corpus.validate(doc, schema)
            assert not problems, f"{doc.id}: {problems}"
            check_groundable(doc)
            docs.append(doc)
    return Dataset(schema=schema, documents=tuple(docs))


def pet_line(doc: Document) -> dict:
    tags = corpus.encode_bio(list(doc.mentions), len(doc.tokens))
    ordinal = {m.id: i for i, m in enumerate(doc.mentions)}
    return {
        "document name": doc.id,
        "tokens": [t.text for t in doc.tokens],
        "sentence-IDs": [t.sentence_index for t in doc.tokens],
        "ner-tags": tags,
        "relations": [
            {
                "relation-type": r.relation_type,
                "source-mention-id": ordinal[r.source_mention_id],
                "target-mention-id": ordinal[r.target_mention_id],
            }
            for r in doc.relations
        ],
        "entity-clusters": [sorted(ordinal[mid] for mid in e.mention_ids)
                            for e in doc.entities],
    }


# ---------------------------------------------------------------------------
# Constraint corpora

def build_decon() -> Dataset:
    schema = corpus.load_schema("decon")
    specs = []

    def d(doc_id):
        b = Builder(doc_id)
        specs.append(b)
        return b

    b = d("decon-01")
    b.w("The process starts when the clerk")
    b.m("registers", "action", "x1")
    b.w("the claim")
    b.s()
    b.w("Afterwards the officer")
    b.m("examines", "action", "x2")
    b.w("the file")
    b.s()
    b.w("Finally the result is")
    b.m("archived", "action", "x3")
    b.s()
    b.con("init", "register claim")
    b.con("succession", "register claim", "examine file")
    b.con("end", "archive result")

    b = d("decon-02")
    b.w("An order is")
    b.m("shipped", "action", "x1")
    b.w("only after the payment is")
    b.m("received", "action", "x2")
    b.s()
    b.con("precedence", "receive payment", "ship order")

    b = d("decon-03")
    b.w("Whenever a defect is")
    b.m("reported", "action", "x1")
    b.w(", the line is")
    b.m("inspected", "action", "x2")
    b.s()
    b.con("response", "report defect", "inspect line")

    b = d("decon-04")
    b.w("After the refund is")
    b.m("issued", "action", "x1")
    b.w(", the card is not")
    b.m("charged", "action", "x2")
    b.w("again")
    b.s()
    b.con("response", "issue refund", "charge card", negated=True)

    b = d("decon-05")
    b.w("The process ends when the report is")
    b.m("filed", "action", "x1")
    b.s()
    b.con("end", "file report")

    b = d("decon-06")
    b.w("The process starts when the user")
    b.m("opens", "action", "x1")
    b.w("a session")
    b.s()
    b.w("Afterwards she")
    b.m("uploads", "action", "x2")
    b.w("the data")
    b.s()
    b.con("init", "open session")
    b.con("response", "open session", "upload data")

    b = d("decon-07")
    b.w("After a dispute is")
    b.m("opened", "action", "x1")
    b.w(", the account is never")
    b.m("deleted", "action", "x2")
    b.s()
    b.con("response", "open dispute", "delete account", negated=True)

    b = d("decon-08")
    b.w("Every claim is")
    b.m("validated", "action", "x1")
    b.w("before it is")
    b.m("approved", "action", "x2")
    b.s()
    b.w("The manager")
    b.m("approves", "action", "x3")
    b.w("the claim only after the risk is")
    b.m("assessed", "action", "x4")
    b.s()
    b.con("precedence", "validate claim", "approve claim")
    b.con("precedence", "assess risk", "approve claim")

    b = d("decon-09")
    b.w("The workflow starts when the guard")
    b.m("unlocks", "action", "x1")
    b.w("the gate")
    b.s()
    b.w("The gate is")
    b.m("locked", "action", "x2")
    b.w("again at the end of the day")
    b.s()
    b.con("init", "unlock gate")
    b.con("end", "lock gate")

    b = d("decon-10")
    b.w("Once the sample is")
    b.m("collected", "action", "x1")
    b.w(", it is always")
    b.m("analyzed", "action", "x2")
    b.s()
    b.w("The lab")
    b.m("archives", "action", "x3")
    b.w("the slides afterwards")
    b.s()
    b.con("response", "collect sample", "analyze sample")
    b.con("succession", "analyze sample", "archive slides")

    b = d("decon-11")
    b.w("The offer is")
    b.m("sent", "action", "x1")
    b.w("only after the draft is")
    b.m("reviewed", "action", "x2")
    b.s()
    b.w("The draft is")
    b.m("reviewed", "action", "x3")
    b.w("only after it is")
    b.m("written", "action", "x4")
    b.s()
    b.con("precedence", "review draft", "send offer")
    b.con("precedence", "write draft", "review draft")

    b = d("decon-12")
    b.w("When the alarm")
    b.m("rings", "action", "x1")
    b.w(", the operator")
    b.m("mutes", "action", "x2")
    b.w("it")
    b.s()
    b.w("The operator never")
    b.m("restarts", "action", "x3")
    b.w("the pump before the valve is")
    b.m("checked", "action", "x4")
    b.s()
    b.con("response", "ring alarm", "mute alarm")
    b.con("precedence", "check valve", "restart pump")

    b = d("decon-13")
    b.w("The term begins when the syllabus is")
    b.m("published", "action", "x1")
    b.s()
    b.w("Grades are")
    b.m("posted", "action", "x2")
    b.w("at the very end")
    b.s()
    b.con("init", "publish syllabus")
    b.con("end", "post grades")

    b = d("decon-14")
    b.w("A backup is")
    b.m("created", "action", "x1")
    b.w("before the system is")
    b.m("upgraded", "action", "x2")
    b.s()
    b.w("The server is")
    b.m("rebooted", "action", "x3")
    b.w("after every upgrade")
    b.s()
    b.con("precedence", "create backup", "upgrade system")
    b.con("response", "upgrade system", "reboot server")

    b = d("decon-15")
    b.w("After the contract is")
    b.m("signed", "action", "x1")
    b.w(", the keys are always")
    b.m("handed over", "action", "x2")
    b.s()
    b.w("The deposit is never")
    b.m("refunded", "action", "x3")
    b.w("before the inspection is")
    b.m("completed", "action", "x4")
    b.s()
    b.con("response", "sign contract", "hand over keys")
    b.con("precedence", "complete inspection", "refund deposit")

    b = d("decon-16")
    b.w("The batch is")
    b.m("mixed", "action", "x1")
    b.w("and afterwards it is always")
    b.m("baked", "action", "x2")
    b.w("in a strict sequence")
    b.s()
    b.w("The oven needs a long warm up time")
    b.s()
    b.con("succession", "mix batch", "bake batch")

    b = d("decon-17")
    b.w("The review starts when the editor")
    b.m("assigns", "action", "x1")
    b.w("a referee")
    b.s()
    b.w("The decision is")
    b.m("recorded", "action", "x2")
    b.w("at the end")
    b.s()
    b.con("init", "assign referee")
    b.con("end", "record decision")

    docs = []
    for b in specs:
        doc = b.doc()
        problems = corpus.validate(doc, schema)
        assert not problems, f"{doc.id}: {problems}"
        check_groundable(doc)
        docs.append(doc)
    return Dataset(schema=schema, documents=tuple(docs))


def build_atdp() -> Dataset:
    schema = corpus.load_schema("atdp")
    specs = []

    def d(doc_id):
        b = Builder(doc_id)
        specs.append(b)
        return b

    b = d("atdp-01")
    b.w("When")
    b.m("an order", "entity", "e1")
    b.m("arrives", "event", "v1")
    b.w(",")
    b.m("the system", "entity", "e2")
    b.m("checks", "action", "x1")
    b.m("the stock", "entity", "e3")
    b.s()
    b.con("init", "check stock")

    b = d("atdp-02")
    b.w("If")
    b.m("the stock is low", "condition", "c1")
    b.w(",")
    b.m("a reorder", "entity", "e1")
    b.w("is")
    b.m("placed", "action", "x1")
    b.s()
    b.m("Each delivery", "entity", "e2")
    b.w("is")
    b.m("recorded", "action", "x2")
    b.s()
    b.con("alternate response", "place reorder", "record delivery")

    b = d("atdp-03")
    b.m("The cook", "entity", "e1")
    b.m("plates", "action", "x1")
    b.m("the dish", "entity", "e2")
    b.w("only after")
    b.m("the taster", "entity", "e3")
    b.m("samples", "action", "x2")
    b.m("it", "entity", "e4")
    b.s()
    b.w("This happens for every single plate")
    b.s()
    b.con("alternate precedence", "sample dish", "plate dish")

    b = d("atdp-04")
    b.m("A guard", "entity", "e1")
    b.m("opens", "action", "x1")
    b.m("the vault", "entity", "e2")
    b.w("and")
    b.m("closes", "action", "x2")
    b.m("it", "entity", "e3")
    b.w("afterwards , one after the other each round")
    b.s()
    b.con("alternate succession", "open vault", "close vault")

    b = d("atdp-05")
    b.w("The shift ends when")
    b.m("the log", "entity", "e1")
    b.w("is")
    b.m("submitted", "action", "x1")
    b.s()
    b.con("end", "submit log")

    b = d("atdp-06")
    b.m("The office", "entity", "e1")
    b.w("is open from nine to five")
    b.s()
    b.m("Visitors", "entity", "e2")
    b.w("can find")
    b.m("a map", "entity", "e3")
    b.w("at")
    b.m("the front desk", "entity", "e4")
    b.s()

    b = d("atdp-07")
    b.m("The archive room", "entity", "e1")
    b.m("stores", "action", "x1")
    b.m("older records", "entity", "e2")
    b.s()
    b.m("A catalog", "entity", "e3")
    b.m("lists", "action", "x2")
    b.m("every box", "entity", "e4")
    b.s()

    b = d("atdp-08")
    b.w("Whenever")
    b.m("a guest", "entity", "e1")
    b.m("files", "action", "x1")
    b.m("a complaint", "entity", "e2")
    b.w(",")
    b.m("the host", "entity", "e3")
    b.m("offers", "action", "x2")
    b.m("an apology", "entity", "e4")
    b.s()
    b.w("If")
    b.m("the issue is serious", "condition", "c1")
    b.w(",")
    b.m("a manager", "entity", "e5")
    b.w("is")
    b.m("called", "action", "x3")
    b.s()
    b.con("response", "file complaint", "offer apology")

    b = d("atdp-09")
    b.m("The pilot", "entity", "e1")
    b.w("never")
    b.m("starts", "action", "x1")
    b.m("the engine", "entity", "e2")
    b.w("before")
    b.m("the checklist", "entity", "e3")
    b.w("is")
    b.m("finished", "action", "x2")
    b.s()
    b.con("precedence", "finish checklist", "start engine")

    b = d("atdp-10")
    b.w("After")
    b.m("a crash", "entity", "e1")
    b.w("is")
    b.m("reported", "event", "v1")
    b.w(",")
    b.m("the dump", "entity", "e2")
    b.w("is never")
    b.m("deleted", "action", "x1")
    b.s()
    b.con("response", "report crash", "delete dump", negated=True)

    b = d("atdp-11")
    b.w("The fair")
    b.m("opens", "event", "v1")
    b.w("when")
    b.m("the mayor", "entity", "e1")
    b.m("cuts", "action", "x1")
    b.m("the ribbon", "entity", "e2")
    b.s()
    b.con("init", "cut ribbon")

    b = d("atdp-12")
    b.m("Samples", "entity", "e1")
    b.w("are")
    b.m("tested", "action", "x1")
    b.w("in")
    b.m("the lab", "entity", "e2")
    b.s()
    b.m("Results", "entity", "e3")
    b.w("are then")
    b.m("published", "action", "x2")
    b.w(", and every test gets its own write up")
    b.s()
    b.con("alternate response", "test samples", "publish results")

    b = d("atdp-13")
    b.m("A ticket", "entity", "e1")
    b.w("is")
    b.m("escalated", "action", "x1")
    b.w("only after two agents")
    b.m("review", "action", "x2")
    b.m("it", "entity", "e2")
    b.s()
    b.w("Most tickets")
    b.m("close", "action", "x3")
    b.w("within a day")
    b.s()
    b.con("precedence", "review ticket", "escalate ticket")

    b = d("atdp-14")
    b.w("When the bell")
    b.m("rings", "event", "v1")
    b.w(",")
    b.m("the market", "entity", "e1")
    b.w("is")
    b.m("opened", "action", "x1")
    b.s()
    b.w("Trading is")
    b.m("halted", "action", "x2")
    b.w("when the bell")
    b.m("rings", "event", "v2")
    b.w("again")
    b.s()
    b.con("init", "open market")
    b.con("end", "halt trading")

    b = d("atdp-15")
    b.m("The crew", "entity", "e1")
    b.m("mixes", "action", "x1")
    b.m("the batch", "entity", "e2")
    b.w("and then")
    b.m("coats", "action", "x2")
    b.m("it", "entity", "e3")
    b.w(", first one step then the other in strict order")
    b.s()
    b.con("succession", "mix batch", "coat batch")

    b = d("atdp-16")
    b.w("If")
    b.m("the badge is valid", "condition", "c1")
    b.w(",")
    b.m("the door", "entity", "e1")
    b.w("is")
    b.m("unlocked", "action", "x1")
    b.s()
    b.m("Entry records", "entity", "e2")
    b.w("are")
    b.m("logged", "action", "x2")
    b.s()
    b.con("response", "unlock door", "log entry")

    b = d("atdp-17")
    b.m("An auditor", "entity", "e1")
    b.m("samples", "action", "x1")
    b.m("the files", "entity", "e2")
    b.w("every quarter")
    b.s()
    b.m("Findings", "entity", "e3")
    b.w("are")
    b.m("reported", "action", "x2")
    b.w("to")
    b.m("the board", "entity", "e4")
    b.s()
    b.con("response", "sample files", "report findings")

    b = d("atdp-18")
    b.w("The night job starts when")
    b.m("the server", "entity", "e1")
    b.m("makes", "action", "x1")
    b.m("a backup", "entity", "e2")
    b.s()
    b.m("The old copy", "entity", "e3")
    b.w("is")
    b.m("deleted", "action", "x2")
    b.w("afterwards , and")
    b.m("a fresh index", "entity", "e4")
    b.w("is")
    b.m("built", "action", "x3")
    b.w("last")
    b.s()
    b.con("init", "make backup")
    b.con("response", "make backup", "delete copy")
    b.con("end", "build index")

    docs = []
    for b in specs:
        doc = b.doc()
        problems = corpus.validate(doc, schema)
        assert not problems, f"{doc.id}: {problems}"
        check_groundable(doc)
        docs.append(doc)
    return Dataset(schema=schema, documents=tuple(docs))


def main() -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / "fixtures").mkdir(exist_ok=True)

    pet = build_pet()
    assert len(pet.documents) == 45
    lines = [json.dumps(pet_line(doc), sort_keys=True) for doc in pet.documents]
    (OUT / "pet.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    reloaded = corpus.load_pet(OUT / "pet.jsonl")
    assert reloaded.documents == pet.documents, "PET layout round trip drifted"

    decon = build_decon()
    assert len(decon.documents) == 17
    corpus.save_canonical(decon, OUT / "decon.jsonl")
    assert corpus.load_canonical(OUT / "decon.jsonl") == decon

    atdp = build_atdp()
    assert len(atdp.documents) == 18
    assert any(not d.constraints for d in atdp.documents)
    corpus.save_canonical(atdp, OUT / "atdp.jsonl")
    assert corpus.load_canonical(OUT / "atdp.jsonl") == atdp

    doc33 = Dataset(schema=pet.schema, documents=(pet.document("doc-3.3"),))
    corpus.save_canonical(doc33, OUT / "fixtures" / "doc33.json")

    print(f"wrote {len(pet.documents)} pet, {len(decon.documents)} decon, "
          f"{len(atdp.documents)} atdp documents under {OUT}")


if __name__ == "__main__":
    main()
