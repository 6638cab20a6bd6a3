"""Acceptance suite.

Ten checks, one per release criterion, each printing a single
pass/fail line so the run log doubles as a checklist.  Published
benchmark scores need live provider access and are shipped as
reference table rows instead; everything here runs offline.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from procex import corpus
from procex.bpmn import (
    compile_document,
    layout,
    parse_bpmn,
    serialize_bpmn,
    validate_graph,
)
from procex.corpus import Document, Mention, Token, normalize_phrase
from procex.eval import (
    ConfusionCounts,
    MatchPolicy,
    score_md,
    scores_from_counts,
)
from procex.llm import CachingClient
from procex.parser import GroundedMention, ParsedMention, parse
from procex.pipeline import per_document_seed, run_cell, score_document
from procex.prompt import (
    K,
    PromptConfig,
    ablation_variants,
    assemble,
    render_gold,
)

from echo_provider import gold_echo
from test_eval import max_matching

DATA = Path(__file__).resolve().parent.parent / "data"
FIXTURES = DATA / "fixtures"

@contextmanager
def criterion(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number:02d} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {number:02d} {name}: pass")


@pytest.fixture(scope="module")
def datasets():
    return (
        corpus.load_pet(DATA / "pet.jsonl"),
        corpus.load_canonical(DATA / "decon.jsonl"),
        corpus.load_canonical(DATA / "atdp.jsonl"),
    )


@pytest.fixture(scope="module")
def pet(datasets):
    return datasets[0]


# ---------------------------------------------------------------------------

def test_01_gold_closed_loop(datasets, capsys, tmp_path):
    with criterion(capsys, 1, "gold closed loop"):
        started = time.monotonic()
        for dataset in datasets:
            client = CachingClient(tmp_path / dataset.schema.dataset_name,
                                   gold_echo(dataset), mode="record")
            for task in dataset.schema.tasks:
                cell = run_cell(
                    dataset, PromptConfig(task=task, schema=dataset.schema), client,
                )
                scores = cell.scores
                assert (scores.precision, scores.recall, scores.f1) == \
                    (1.0, 1.0, 1.0), (dataset.schema.dataset_name, task)
                assert cell.parsing_errors == 0
        assert time.monotonic() - started < 30.0


def test_02_matching_equals_brute_force(capsys):
    with criterion(capsys, 2, "maximum matching against brute force"):
        started = time.monotonic()
        rng = random.Random(20260822)
        policy = MatchPolicy(span_mode="text_match", type_sensitive=True)
        types = ("activity", "actor")
        vocab = ("alpha", "beta", "gamma")

        def random_doc():
            words = [rng.choice(vocab) for _ in range(8)]
            tokens = tuple(Token(w, i, 0) for i, w in enumerate(words))
            doc = Document(id="fuzz", raw_text=" ".join(words), tokens=tokens)
            gold = []
            for i in range(rng.randint(0, 6)):
                start = rng.randrange(0, 7)
                width = rng.randint(1, 2)
                span = tuple(range(start, min(start + width, 8)))
                gold.append(Mention(f"g{i}", rng.choice(types), span))
            pred = []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.8:
                    start = rng.randrange(0, 7)
                    width = rng.randint(1, 2)
                    span = tuple(range(start, min(start + width, 8)))
                    surface = " ".join(words[i] for i in span)
                    pred.append(GroundedMention(rng.choice(types), span, surface))
                else:
                    pred.append(ParsedMention(rng.choice(types),
                                              rng.choice(vocab)))
            return doc, pred, gold

        def brute_force(pred, gold, matches):
            best = 0
            order = list(range(len(gold)))
            for r in range(min(len(pred), len(gold)), -1, -1):
                if r <= best:
                    break
                for chosen in itertools.permutations(order, r):
                    for subset in itertools.combinations(range(len(pred)), r):
                        size = sum(
                            1 for p, g in zip(subset, chosen)
                            if matches(pred[p], gold[g])
                        )
                        if size == r:
                            best = max(best, r)
                            break
                    if best == r:
                        break
            return best

        for _ in range(200):
            doc, pred, gold = random_doc()

            def matches(p, g):
                if p.mention_type != g.mention_type:
                    return False
                p_surface = (p.matched_surface if isinstance(p, GroundedMention)
                             else p.surface)
                return normalize_phrase(p_surface) == \
                    normalize_phrase(doc.surface(g))

            engine = score_md(pred, gold, policy, doc).counts.correct
            assert engine == brute_force(pred, gold, matches)

        # and the matching engine itself on arbitrary bipartite graphs
        for _ in range(200):
            n_pred, n_gold = rng.randint(0, 6), rng.randint(0, 6)
            pairs = [
                (p, g)
                for p in range(n_pred)
                for g in range(n_gold)
                if rng.random() < 0.4
            ]
            compat = set(pairs)
            engine = max_matching(pairs, n_pred, n_gold)

            best = 0
            golds = list(range(n_gold))
            for r in range(min(n_pred, n_gold), -1, -1):
                if r <= best:
                    break
                done = False
                for subset in itertools.combinations(range(n_pred), r):
                    for perm in itertools.permutations(golds, r):
                        if all((p, g) in compat for p, g in zip(subset, perm)):
                            best, done = r, True
                            break
                    if done:
                        break
            assert engine == best
        assert time.monotonic() - started < 10.0


def test_03_score_formulas(capsys):
    with criterion(capsys, 3, "precision recall F1 formulas"):
        scores = scores_from_counts(ConfusionCounts(correct=2, predicted=4,
                                                    gold=5))
        assert scores.precision == 0.5
        assert scores.recall == 0.4
        assert abs(scores.f1 - 4 / 9) <= 1e-9


def test_04_parser_totality_and_accounting(pet, capsys):
    with criterion(capsys, 4, "parser totality and line accounting"):
        started = time.monotonic()
        rng = random.Random(4)
        schema = pet.schema
        fragments = (
            "activity", "Actor", "nonsense", "flow", "", " ", "|", "||",
            "registers the claim", "x" * 50, "yes", "no", "maybe", "Facts:",
            "\ttab", "uses|a|b|c", "init|no|pay", "…", "\x00\x01",
        )
        tasks = ("MD", "ER", "RE", "CE")
        for case in range(10_000):
            if case % 3 == 0:
                text = rng.randbytes(rng.randint(0, 120)).decode("latin-1")
            else:
                line_count = rng.randint(0, 8)
                text = "\n".join(
                    "|".join(rng.choice(fragments)
                             for _ in range(rng.randint(0, 4)))
                    for _ in range(line_count)
                )
            report = parse(text, tasks[case % 4], schema)
            total = len(text.splitlines())
            assert (len(report.items) + len(report.error_lines)
                    + report.ignored_line_count) == total
        assert time.monotonic() - started < 20.0


def test_05_pipe_free_response_accounting(pet, capsys):
    with criterion(capsys, 5, "parsing error accounting on pipe-free output"):
        text = (FIXTURES / "pipe_free_response.txt").read_text(encoding="utf-8")
        assert "|" not in text
        report = parse(text, "MD", pet.schema)
        non_prose = [line for line in text.splitlines() if line.strip()]
        assert len(non_prose) > 0
        assert report.error_count == len(non_prose)
        assert report.items == ()


def test_06_ablation_prompt_isolation(pet, capsys):
    with criterion(capsys, 6, "ablation variants differ only in their span"):
        started = time.monotonic()
        very_short_touches = {K.META_LANGUAGE, K.DISAMBIGUATION}
        doc = pet.document("doc-2.1")
        for task in ("MD", "RE"):
            base_cfg = PromptConfig(task=task, schema=pet.schema)
            base = assemble(base_cfg, doc)
            base_raw = base.text.encode("utf-8")
            variants = ablation_variants(base_cfg)
            assert len(variants) == 10
            for label, cfg in variants:
                rendered = assemble(cfg, doc)
                if label == "Baseline":
                    assert rendered.text == base.text
                    continue
                if label == "Very Short Prompt":
                    raw = rendered.text.encode("utf-8")
                    kinds = set(base.component_spans) - very_short_touches
                    for kind in kinds:
                        off, size = base.component_spans[kind]
                        off2, size2 = rendered.component_spans[kind]
                        assert base_raw[off:off + size] == raw[off2:off2 + size2]
                    tail = max(o + s for o, s in base.component_spans.values())
                    tail2 = max(o + s
                                for o, s in rendered.component_spans.values())
                    assert base_raw[tail:] == raw[tail2:]
                    continue
                removed = base_cfg.enabled - cfg.enabled
                assert len(removed) == 1
                off, size = base.component_spans[next(iter(removed))]
                spliced = (base_raw[:off] + base_raw[off + size:]).decode("utf-8")
                assert rendered.text == spliced
        assert time.monotonic() - started < 5.0


def test_07_few_shot_integrity(pet, capsys):
    with criterion(capsys, 7, "shots never include the target document"):
        for doc in pet.documents:
            for count in (0, 1, 3):
                config = PromptConfig(
                    task="MD", schema=pet.schema, shot_count=count,
                    shot_seed=per_document_seed(0, doc.id),
                )
                rendered = assemble(config, doc, shot_pool=pet.documents)
                assert len(rendered.shot_ids) == count
                assert doc.id not in rendered.shot_ids
                assert rendered.text.count(f"Input: {doc.raw_text}\n") == 1


def test_08_gold_round_trip(datasets, capsys):
    with criterion(capsys, 8, "gold output parses back to gold annotations"):
        for dataset in datasets:
            policy = MatchPolicy.from_schema(dataset.schema)
            assert len(dataset.documents) > 0
            for doc in dataset.documents:
                for task in dataset.schema.tasks:
                    response = "\n".join(render_gold(doc, task))
                    report = parse(response, task, dataset.schema)
                    assert report.error_count == 0, (doc.id, task)
                    predictions, scores = score_document(task, report, doc,
                                                         policy)
                    counts = scores.counts
                    assert counts.correct == counts.predicted == counts.gold, \
                        (doc.id, task)
                    if task == "MD":
                        grounded = sorted(
                            (m.mention_type.lower(), m.token_indices)
                            for m in predictions
                        )
                        gold = sorted(
                            (m.mention_type.lower(), tuple(m.token_indices))
                            for m in doc.mentions
                        )
                        assert grounded == gold, doc.id


def test_09_bpmn_structure(capsys):
    with criterion(capsys, 9, "bpmn compilation of the claims fixture"):
        dataset = corpus.load_canonical(FIXTURES / "doc33.json")
        doc = dataset.documents[0]
        schema = dataset.schema
        graph = compile_document(doc, schema)
        assert validate_graph(graph) == []

        xml = serialize_bpmn(layout(graph))
        model = parse_bpmn(xml)
        parsed = model.graph

        activity_count = sum(
            1 for m in doc.mentions
            if schema.mention_role_of(m.mention_type) == "activity"
        )
        tasks = [n for n in parsed.nodes if n.kind == "task"]
        assert len(tasks) == activity_count == 5

        actor_ids = {
            m.id for m in doc.mentions
            if schema.mention_role_of(m.mention_type) == "actor"
        }
        actor_entities = [e for e in doc.entities if e.mention_ids <= actor_ids]
        clustered = set().union(*(e.mention_ids for e in actor_entities))
        singletons = actor_ids - clustered
        assert len(parsed.lanes) == len(actor_entities) + len(singletons) == 2

        lane_of = {n.id: n.lane_id for n in parsed.nodes}
        for flow in parsed.sequence_flows:
            assert lane_of[flow.source] == lane_of[flow.target]
        for flow in parsed.message_flows:
            assert lane_of[flow.source] != lane_of[flow.target]

        starts = [n for n in parsed.nodes if n.kind == "start_event"]
        assert len(starts) == 1

        # remaining element counts, frozen by hand from the fixture text
        assert sum(1 for n in parsed.nodes if n.kind == "xor_gateway") == 1
        assert sum(1 for n in parsed.nodes if n.kind == "and_gateway") == 0
        assert sum(1 for n in parsed.nodes if n.kind == "data_object") == 3
        assert sum(1 for n in parsed.nodes if n.kind == "end_event") == 1
        assert len(parsed.sequence_flows) == 6
        assert len(parsed.message_flows) == 2
        assert len(parsed.data_associations) == 4


def test_10_replay_regression(pet, capsys, tmp_path):
    with criterion(capsys, 10, "shipped replay fixture reproduces bytes"):
        started = time.monotonic()
        client = CachingClient(FIXTURES / "replay_cache", mode="replay")
        cell = run_cell(
            pet, PromptConfig(task="MD", schema=pet.schema), client,
            out_root=tmp_path, model_id="stub-fixture",
        )
        run_dir = tmp_path / cell.manifest_id
        for name in ("scores.json", "table.txt"):
            fresh = (run_dir / name).read_bytes()
            expected = (FIXTURES / "replay_expected" / name).read_bytes()
            assert fresh == expected, name
        scores = json.loads((run_dir / "scores.json").read_text("utf-8"))
        assert 0.0 < scores["f1"] < 1.0
        assert scores["parsing_errors"] > 0
        assert time.monotonic() - started < 60.0
