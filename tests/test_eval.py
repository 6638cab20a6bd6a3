"""Scoring tests, including the brute-force matching oracle."""

import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from procex import corpus, eval as ev
from procex.corpus import Constraint, Document, Entity, Mention, Relation, Token
from procex.eval import (
    ConfusionCounts,
    MatchPolicy,
    aggregate,
    score_constraints,
    score_er,
    score_md,
    score_re,
    scores_from_counts,
)
from procex.parser import (
    GroundedMention,
    GroundedRelation,
    ParsedConstraint,
    ParsedMention,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def make_doc(words, mentions, entities=(), relations=()):
    tokens = tuple(Token(w, i, 0) for i, w in enumerate(words))
    ms = tuple(Mention(f"m{i}", t, tuple(span)) for i, (t, span) in enumerate(mentions))
    es = tuple(Entity(f"e{i}", frozenset(ids)) for i, ids in enumerate(entities))
    rs = tuple(
        Relation(f"r{i}", t, s, g) for i, (t, s, g) in enumerate(relations)
    )
    return Document(id="d", raw_text=" ".join(words), tokens=tokens, mentions=ms,
                    entities=es, relations=rs, constraints=())


def grounded_from(doc, mention):
    return GroundedMention(
        mention_type=mention.mention_type,
        token_indices=tuple(mention.token_indices),
        matched_surface=doc.surface(mention),
    )


# ---------------------------------------------------------------------------
# formulas

def test_formula_hand_values():
    s = scores_from_counts(ConfusionCounts(2, 4, 5))
    assert s.precision == 0.5
    assert s.recall == 0.4
    assert abs(s.f1 - 4 / 9) < 1e-12


def test_aggregate_micro():
    s = aggregate([ConfusionCounts(1, 2, 2), ConfusionCounts(1, 2, 2)])
    assert (s.precision, s.recall, s.f1) == (0.5, 0.5, 0.5)
    assert s.counts == ConfusionCounts(2, 4, 4)


def test_aggregate_empty_is_zero():
    s = aggregate([])
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)


def test_aggregate_single_equals_per_doc():
    c = ConfusionCounts(3, 4, 6)
    assert aggregate([c]) == scores_from_counts(c)


def test_zero_denominator_convention():
    empty_both = scores_from_counts(ConfusionCounts(0, 0, 0))
    assert (empty_both.precision, empty_both.recall, empty_both.f1) == (1.0, 1.0, 1.0)
    nothing_predicted = scores_from_counts(ConfusionCounts(0, 0, 4))
    assert (nothing_predicted.precision, nothing_predicted.recall) == (0.0, 0.0)
    nothing_gold = scores_from_counts(ConfusionCounts(0, 3, 0))
    assert (nothing_gold.precision, nothing_gold.recall, nothing_gold.f1) == (0.0, 0.0, 0.0)


@given(
    st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)).filter(
        lambda t: t[0] <= min(t[1], t[2])
    )
)
def test_harmonic_identity_and_bounds(t):
    s = scores_from_counts(ConfusionCounts(*t))
    assert 0.0 <= s.precision <= 1.0
    assert 0.0 <= s.recall <= 1.0
    assert 0.0 <= s.f1 <= 1.0
    assert abs(s.f1 * (s.precision + s.recall) - 2 * s.precision * s.recall) < 1e-9


# ---------------------------------------------------------------------------
# matching

def brute_force_matching(pairs, n_pred, n_gold):
    admissible = set(pairs)

    def best(p, used):
        if p == n_pred:
            return 0
        top = best(p + 1, used)
        for g in range(n_gold):
            if g not in used and (p, g) in admissible:
                top = max(top, 1 + best(p + 1, used | {g}))
        return top

    return best(0, frozenset())


def test_matching_beats_greedy():
    # greedy in order would pair pred0 with gold0 and strand pred1
    assert max_matching([(0, 0), (0, 1), (1, 0)], 2, 2) == 2


def test_matching_long_augmenting_path():
    # each pred first takes gold i + 1, so the last pred can only match by
    # shifting every earlier pred back along a 3,000-step augmenting path
    n = 3000
    pairs = []
    for i in range(n):
        if i + 1 < n:
            pairs.append((i, i + 1))
        pairs.append((i, i))
    assert max_matching(pairs, n, n) == n


@given(
    n_pred=st.integers(0, 6),
    n_gold=st.integers(0, 6),
    bits=st.integers(0, 2 ** 36 - 1),
)
def test_matching_equals_brute_force(n_pred, n_gold, bits):
    pairs = [
        (p, g)
        for p in range(n_pred)
        for g in range(n_gold)
        if (bits >> (p * 6 + g)) & 1
    ]
    assert max_matching(pairs, n_pred, n_gold) == \
        brute_force_matching(pairs, n_pred, n_gold)


# ---------------------------------------------------------------------------
# MD

def md_doc():
    return make_doc(
        ["The", "clerk", "registers", "the", "claim"],
        [("Actor", (0, 1)), ("Activity", (2,)), ("Activity Data", (3, 4))],
    )


def test_md_identity_scores_one():
    doc = md_doc()
    pred = [grounded_from(doc, m) for m in doc.mentions]
    s = score_md(pred, list(doc.mentions))
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)


def test_md_wrong_type_is_fp_and_miss():
    doc = md_doc()
    pred = [GroundedMention("Actor", (2,), "registers")]
    s = score_md(pred, [doc.mentions[1]])
    assert s.counts == ConfusionCounts(0, 1, 1)
    loose = score_md(pred, [doc.mentions[1]], MatchPolicy(type_sensitive=False))
    assert loose.counts.correct == 1


def test_md_text_match_accepts_ungrounded():
    doc = md_doc()
    pred = [ParsedMention("Activity", "REGISTERS")]
    strict = score_md(pred, [doc.mentions[1]])
    assert strict.counts.correct == 0
    textual = score_md(
        pred, [doc.mentions[1]], MatchPolicy(span_mode="text_match"), doc=doc
    )
    assert textual.counts.correct == 1


def test_md_text_match_requires_doc():
    with pytest.raises(ValueError):
        score_md([], [], MatchPolicy(span_mode="text_match"))


def test_md_permutation_invariance():
    doc = md_doc()
    pred = [grounded_from(doc, m) for m in doc.mentions]
    pred.append(GroundedMention("Actor", (2,), "registers"))
    gold = list(doc.mentions)
    base = score_md(pred, gold)
    rng = random.Random(0)
    for _ in range(5):
        rng.shuffle(pred)
        rng.shuffle(gold)
        assert score_md(pred, gold) == base


# ---------------------------------------------------------------------------
# ER

def er_doc():
    return make_doc(
        ["The", "clerk", "files", ";", "he", "rests"],
        [("Actor", (0, 1)), ("Activity", (2,)), ("Actor", (4,)), ("Activity", (5,))],
        entities=[("m0", "m2")],
    )


def er_clusters(doc, *clusters):
    """Grounded clusters of doc's mentions, given by mention index."""
    return [tuple(grounded_from(doc, doc.mentions[i]) for i in c) for c in clusters]


def test_er_identity():
    doc = er_doc()
    pred = er_clusters(doc, (0, 2), (1,), (3,))
    s = score_er(pred, list(doc.entities), doc)
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)


def test_er_merged_clusters_do_not_match():
    doc = er_doc()
    pred = er_clusters(doc, (0, 2, 1), (3,))
    s = score_er(pred, list(doc.entities), doc)
    assert s.counts == ConfusionCounts(1, 2, 3)


def test_er_empty_predictions():
    doc = er_doc()
    s = score_er([], list(doc.entities), doc)
    assert s.counts == ConfusionCounts(0, 0, 3)
    assert (s.precision, s.recall) == (0.0, 0.0)


def test_er_accepts_grounded_mention_clusters():
    doc = er_doc()
    pred = [
        (grounded_from(doc, doc.mentions[0]), grounded_from(doc, doc.mentions[2])),
        (grounded_from(doc, doc.mentions[1]),),
        (grounded_from(doc, doc.mentions[3]),),
    ]
    assert score_er(pred, list(doc.entities), doc).f1 == 1.0


# ---------------------------------------------------------------------------
# RE

def re_doc():
    return make_doc(
        ["register", "then", "examine"],
        [("Activity", (0,)), ("Activity", (2,))],
        relations=[("flow", "m0", "m1")],
    )


def test_re_identity_and_direction():
    doc = re_doc()
    good = GroundedRelation("flow", (0,), "register", (2,), "examine")
    flipped = GroundedRelation("flow", (2,), "examine", (0,), "register")
    assert score_re([good], list(doc.relations), doc).f1 == 1.0
    assert score_re([flipped], list(doc.relations), doc).counts.correct == 0


def test_re_half_right():
    doc = make_doc(
        ["a", "b", "c"],
        [("Activity", (0,)), ("Activity", (1,)), ("Activity", (2,))],
        relations=[("flow", "m0", "m1"), ("flow", "m1", "m2")],
    )
    pred = [
        GroundedRelation("flow", (0,), "a", (1,), "b"),
        GroundedRelation("flow", (2,), "c", (0,), "a"),
    ]
    s = score_re(pred, list(doc.relations), doc)
    assert (s.precision, s.recall, s.f1) == (0.5, 0.5, 0.5)


def test_re_text_match_policy():
    doc = re_doc()
    pred = [GroundedRelation("flow", None, "Register", None, "EXAMINE")]
    strict = score_re(pred, list(doc.relations), doc)
    assert strict.counts.correct == 0
    textual = score_re(
        pred, list(doc.relations), doc, MatchPolicy(span_mode="text_match")
    )
    assert textual.counts.correct == 1


def test_re_ungrounded_endpoint_is_fp_under_exact_span():
    doc = re_doc()
    pred = [GroundedRelation("flow", (0,), "register", None, "absent words")]
    s = score_re(pred, list(doc.relations), doc)
    assert s.counts == ConfusionCounts(0, 1, 1)


# ---------------------------------------------------------------------------
# CE

GOLD_SUCCESSION = Constraint("c0", "succession", False, "register claim", "examine claim")


def test_ce_identity():
    pred = [ParsedConstraint("succession", False, ("register claim", "examine claim"))]
    s = score_constraints(pred, [GOLD_SUCCESSION])
    assert s.f1 == 1.0


def test_ce_lemma_like_is_case_insensitive():
    pred = [ParsedConstraint("Succession", False, ("Register Claim", "Examine Claim"))]
    strict = score_constraints(pred, [GOLD_SUCCESSION])
    assert strict.counts.correct == 0  # verbatim keeps case
    loose = score_constraints(
        pred, [GOLD_SUCCESSION], MatchPolicy(constraint_normalization="lemma_like")
    )
    assert loose.counts.correct == 1


def test_ce_lemma_like_strips_determiners_and_auxiliaries():
    pred = [ParsedConstraint(
        "succession", False, ("register the claim", "examine a claim")
    )]
    loose = score_constraints(
        pred, [GOLD_SUCCESSION], MatchPolicy(constraint_normalization="lemma_like")
    )
    assert loose.counts.correct == 1


def test_ce_negation_mismatch():
    pred = [ParsedConstraint("succession", True, ("register claim", "examine claim"))]
    s = score_constraints(pred, [GOLD_SUCCESSION])
    assert s.counts.correct == 0


def test_ce_arity_mismatch():
    gold = Constraint("c0", "init", False, "register claim")
    pred = [ParsedConstraint("init", False, ("register claim", "examine claim"))]
    assert score_constraints(pred, [gold]).counts.correct == 0
    ok = [ParsedConstraint("init", False, ("register claim",))]
    assert score_constraints(ok, [gold]).counts.correct == 1


def test_ce_duplicate_predictions_match_once():
    pred = [
        ParsedConstraint("succession", False, ("register claim", "examine claim")),
        ParsedConstraint("succession", False, ("register claim", "examine claim")),
    ]
    s = score_constraints(pred, [GOLD_SUCCESSION])
    assert s.counts == ConfusionCounts(1, 2, 1)


# ---------------------------------------------------------------------------
# policy data

def test_policies_from_schemas():
    pet = MatchPolicy.from_schema(corpus.load_schema("pet"))
    assert pet.span_mode == "exact_span" and pet.type_sensitive
    assert pet.constraint_normalization == "verbatim"
    decon = MatchPolicy.from_schema(corpus.load_schema("decon"))
    assert decon.constraint_normalization == "lemma_like"


def test_counts_validation():
    with pytest.raises(ValueError):
        ConfusionCounts(3, 2, 5)


# ---------------------------------------------------------------------------
# keyed counts against the matching oracle
#
# The scorers count matches per key. These are the pairwise predicates
# the keys stand for; the maximum matching over the pairs they admit
# must give the same correct count on any document.

WORDS = ["The", "the", "clerk", "clerk,", "files", "form", "."]
MENTION_TYPES = ["Activity", "activity", "Actor", "activity_data", "Activity Data"]
RELATION_TYPES = ["flow", "Flow", "uses"]
CONSTRAINT_TYPES = ["precedence", "Precedence", "response"]
ACTIONS = ["the form", "form", "Form", "is sent", "sent", "Files"]
SPAN_POLICIES = [
    MatchPolicy(span_mode=mode, type_sensitive=typed)
    for mode in ("exact_span", "text_match")
    for typed in (True, False)
]


@st.composite
def scoring_cases(draw):
    """A small document plus predictions for every task.

    Most predictions copy a gold item and perturb it (type spelling,
    case, edge punctuation, a determiner, swapped or dropped endpoints,
    negation), so near misses and ties are common.
    """
    words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8))

    def span():
        start = draw(st.integers(0, len(words) - 1))
        width = draw(st.integers(1, min(2, len(words) - start)))
        return tuple(range(start, start + width))

    def phrase():
        return " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=1,
                                      max_size=2)))

    def variant(text):
        return draw(st.sampled_from([text, text.upper(), text + ",",
                                     "the " + text]))

    def type_like(name, names):
        return draw(st.sampled_from([name, name.upper(), name.replace(" ", "_")]
                                    + names))

    def from_gold(items):
        return bool(items) and draw(st.booleans())

    mentions = tuple(
        Mention(f"m{i}", draw(st.sampled_from(MENTION_TYPES)), span())
        for i in range(draw(st.integers(0, 5)))
    )
    ids = [m.id for m in mentions]
    groups: dict = {}
    for mid in ids:
        groups.setdefault(draw(st.integers(0, 3)), []).append(mid)
    entities = tuple(
        Entity(f"e{k}", frozenset(members))
        for k, members in groups.items() if len(members) > 1
    )
    relations = tuple(
        Relation(f"r{i}", draw(st.sampled_from(RELATION_TYPES)),
                 draw(st.sampled_from(ids)), draw(st.sampled_from(ids)))
        for i in range(draw(st.integers(0, 4) if ids else st.just(0)))
    )

    def actions():
        return tuple(draw(st.lists(st.sampled_from(ACTIONS), min_size=1,
                                   max_size=2)))

    constraints = []
    for i in range(draw(st.integers(0, 4))):
        first, *rest = actions()
        constraints.append(Constraint(
            f"c{i}", draw(st.sampled_from(CONSTRAINT_TYPES)),
            draw(st.booleans()), first, rest[0] if rest else None,
        ))
    doc = Document(
        id="d", raw_text=" ".join(words),
        tokens=tuple(Token(w, i, 0) for i, w in enumerate(words)),
        mentions=mentions, entities=entities, relations=relations,
        constraints=tuple(constraints),
    )
    mmap = doc.mention_map()

    def surface_of(s):
        return " ".join(words[i] for i in s)

    def md_prediction():
        if from_gold(mentions):
            g = draw(st.sampled_from(mentions))
            mtype, s = type_like(g.mention_type, MENTION_TYPES), g.token_indices
        else:
            mtype, s = draw(st.sampled_from(MENTION_TYPES)), span()
        if draw(st.booleans()):
            return GroundedMention(mtype, s, surface_of(s))
        return ParsedMention(mtype, variant(surface_of(s)))

    def re_prediction():
        if from_gold(relations):
            g = draw(st.sampled_from(relations))
            rtype = type_like(g.relation_type, RELATION_TYPES)
            ends = [mmap[g.source_mention_id].token_indices,
                    mmap[g.target_mention_id].token_indices]
            if draw(st.booleans()):
                ends.reverse()
        else:
            rtype, ends = draw(st.sampled_from(RELATION_TYPES)), [span(), span()]
        fields = []
        for s in ends:  # an endpoint may fail to ground yet keep its text
            fields += [None if draw(st.booleans()) else s, variant(surface_of(s))]
        return GroundedRelation(rtype, *fields)

    def er_prediction():
        if from_gold(mentions):
            if entities and draw(st.booleans()):
                members = draw(st.sampled_from(entities)).mention_ids
            else:
                members = {draw(st.sampled_from(mentions)).id}
            pool = sorted({mmap[mid].token_indices for mid in members})
            spans = draw(st.lists(st.sampled_from(pool), min_size=1,
                                  max_size=len(pool), unique=True))
        else:
            spans = [span() for _ in range(draw(st.integers(1, 2)))]
        return tuple(GroundedMention("entity", s, surface_of(s)) for s in spans)

    def ce_prediction():
        if from_gold(constraints):
            g = draw(st.sampled_from(constraints))
            acts = (g.first_action,) if g.second_action is None \
                else (g.first_action, g.second_action)
            return ParsedConstraint(
                type_like(g.constraint_type, CONSTRAINT_TYPES),
                g.negated != draw(st.booleans()),
                tuple(variant(a) for a in acts),
            )
        return ParsedConstraint(draw(st.sampled_from(CONSTRAINT_TYPES)),
                                draw(st.booleans()), actions())

    def some(make):
        return [make() for _ in range(draw(st.integers(0, 6)))]

    return (doc, some(md_prediction), some(re_prediction),
            some(er_prediction), some(ce_prediction))


def max_matching(pairs: list, n_pred: int, n_gold: int) -> int:
    """Size of a maximum bipartite matching given admissible (pred, gold) pairs.

    Augmenting paths are searched depth first with an explicit stack, so
    a path may be as long as the graph without hitting the recursion limit.
    """
    adj: list = [[] for _ in range(n_pred)]
    for p, g in pairs:
        adj[p].append(g)
    match_of_gold = [-1] * n_gold
    size = 0
    for root in range(n_pred):
        seen = [False] * n_gold
        stack = [(root, iter(adj[root]))]
        via: list = []  # via[i] is the gold vertex leading to stack[i + 1]
        while stack:
            p, options = stack[-1]
            g = next((g for g in options if not seen[g]), None)
            if g is None:
                stack.pop()
                if via:
                    via.pop()
                continue
            seen[g] = True
            via.append(g)
            if match_of_gold[g] == -1:
                for (q, _), h in zip(stack, via):
                    match_of_gold[h] = q
                size += 1
                break
            stack.append((match_of_gold[g], iter(adj[match_of_gold[g]])))
    return size


def oracle_correct(pred, gold, matches) -> int:
    pairs = [
        (i, j)
        for i, p in enumerate(pred)
        for j, g in enumerate(gold)
        if matches(p, g)
    ]
    return max_matching(pairs, len(pred), len(gold))


def same_type(policy, a: str, b: str) -> bool:
    return not policy.type_sensitive or \
        corpus.normalize_type_name(a) == corpus.normalize_type_name(b)


def span_matches(policy, doc, indices, surface, gold: Mention) -> bool:
    if policy.span_mode == "exact_span":
        return indices is not None and indices == tuple(gold.token_indices)
    return corpus.normalize_phrase(surface) == \
        corpus.normalize_phrase(doc.surface(gold))


@given(case=scoring_cases())
def test_md_keyed_counts_equal_matching_oracle(case):
    doc, pred, *_ = case
    for policy in SPAN_POLICIES:
        def matches(p, g):
            grounded = isinstance(p, GroundedMention)
            if policy.span_mode == "exact_span" and not grounded:
                return False
            return same_type(policy, p.mention_type, g.mention_type) and \
                span_matches(policy, doc, p.token_indices if grounded else None,
                             p.matched_surface if grounded else p.surface, g)

        gold = list(doc.mentions)
        assert score_md(pred, gold, policy, doc).counts.correct == \
            oracle_correct(pred, gold, matches), policy


@given(case=scoring_cases())
def test_re_keyed_counts_equal_matching_oracle(case):
    doc, _, pred, *_ = case
    mmap = doc.mention_map()
    for policy in SPAN_POLICIES:
        def matches(p, g):
            return (
                same_type(policy, p.relation_type, g.relation_type)
                and span_matches(policy, doc, p.source_indices,
                                 p.source_surface, mmap[g.source_mention_id])
                and span_matches(policy, doc, p.target_indices,
                                 p.target_surface, mmap[g.target_mention_id])
            )

        gold = list(doc.relations)
        assert score_re(pred, gold, doc, policy).counts.correct == \
            oracle_correct(pred, gold, matches), policy


@given(case=scoring_cases())
def test_er_keyed_counts_equal_matching_oracle(case):
    doc, _, _, pred, _ = case
    mmap = doc.mention_map()
    clustered = {mid for e in doc.entities for mid in e.mention_ids}
    gold_sets = [
        frozenset(mmap[mid].token_indices for mid in e.mention_ids)
        for e in doc.entities
    ] + [frozenset([m.token_indices]) for m in doc.mentions
         if m.id not in clustered]
    pred_sets = [frozenset(m.token_indices for m in c) for c in pred]
    assert score_er(pred, list(doc.entities), doc).counts.correct == \
        oracle_correct(pred_sets, gold_sets, lambda p, g: p == g)


@given(case=scoring_cases())
def test_ce_keyed_counts_equal_matching_oracle(case):
    doc, *_, pred = case
    for mode in ("verbatim", "lemma_like"):
        policy = MatchPolicy(constraint_normalization=mode)

        def matches(p, g):
            gold_actions = (g.first_action,) if g.second_action is None \
                else (g.first_action, g.second_action)
            return (
                corpus.normalize_type_name(p.constraint_type)
                == corpus.normalize_type_name(g.constraint_type)
                and p.negated == g.negated
                and len(p.actions) == len(gold_actions)
                and all(ev.normalize_action(a, mode) == ev.normalize_action(b, mode)
                        for a, b in zip(p.actions, gold_actions))
            )

        gold = list(doc.constraints)
        assert score_constraints(pred, gold, policy).counts.correct == \
            oracle_correct(pred, gold, matches), mode
