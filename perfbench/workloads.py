"""The four benchmark workloads.

Each workload builds its inputs in ``setup`` (into a directory the
runner hands it), runs a warm-up, and then serves passes:
``begin_pass`` prepares fresh state outside the timed region,
``operations`` lists the timed unit operations of one pass, and
``check`` / ``check_pass`` verify their results afterwards, against
expectations computed apart from the code under test.

Run directories of pass i go to ``runs/pass-<i>``, a directory the
runner keeps from one run to the next, so a run rewrites the files the
previous run wrote there, as a user re-scoring a recorded run does.
Creating a file cost between 20 and 600 microseconds of kernel time on
the 2-CPU VM this was built on, depending on what the host was doing;
rewriting one written seconds ago waits for its write-back; rewriting
one written a run ago costs about 50 microseconds and stays there.

A check returns ``(status, message)`` with status ``ok``, ``known``
(a named fault of the program that fails every time on fixed inputs)
or ``fail``. Every call into procex goes through a module attribute,
so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import threading
import time
from pathlib import Path

from procex import bpmn, cli, corpus, pipeline, prompt
from procex.llm import CachingClient, ChatRequest

from scale import build_scale_document
from stubs import (
    ZERO,
    GoldEchoProvider,
    LatencyProvider,
    norm_type,
    damage_plan,
    damaged_response,
    expected_for,
    gold_lines,
    scores,
)

MODEL_ID = "stub"
OK = ("ok", "")


def _fail(message: str):
    return ("fail", message)


def cell_prompts(dataset, task: str, shots: int, template) -> list:
    """The prompts a zero-seed run_cell sends for one (task, shots) cell."""
    base = prompt.PromptConfig(task=task, schema=dataset.schema, shot_count=shots)
    out = []
    for doc in dataset.documents:
        config = base if shots == 0 else base.replace(
            shot_seed=pipeline.per_document_seed(0, doc.id))
        out.append(prompt.assemble(config, doc, dataset.documents, template).text)
    return out


def by_raw_text(named_datasets) -> dict:
    """raw text -> (dataset name, schema, document), for the stubs."""
    out: dict = {}
    for name, dataset in named_datasets:
        for doc in dataset.documents:
            if doc.raw_text in out:
                raise ValueError(f"two documents share the text of {doc.id}")
            out[doc.raw_text] = (name, dataset.schema, doc)
    return out


def run_cli(argv: list):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def extract_argv(dataset_path, task, shots, cache, out) -> list:
    return ["extract", "--dataset", str(dataset_path), "--task", task,
            "--shots", str(shots), "--mode", "replay", "--cache", str(cache),
            "--out", str(out), "--model", MODEL_ID]


def run_dir_of(result):
    """The run directory a successful `procex extract` printed, or a failure."""
    code, stdout = result
    if code != 0:
        return None, f"exit code {code}"
    for line in stdout.splitlines():
        if line.startswith("run: "):
            return Path(line[len("run: "):]), ""
    return None, "no run directory printed"


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    name = ""
    docs_per_pass = 0

    def __init__(self, root: Path, seed: int, tracer=None):
        self.root = root
        self.seed = seed
        self.tracer = tracer
        self.runs: Path | None = None

    def setup(self, where: Path) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        pass

    def begin_pass(self, where: Path, runs: Path) -> None:
        """``where`` is new and empty; ``runs`` may hold an earlier run's files."""
        self.runs = runs

    def operations(self) -> list:
        raise NotImplementedError

    def check(self, label, result):
        return OK

    def check_pass(self, results) -> list:
        return []

    def pass_numbers(self) -> dict:
        """Per-pass numbers the workload measures itself (traced runs)."""
        return {"pipeline.run_dir.bytes": tree_bytes(self.runs) if self.runs else 0}


# ---------------------------------------------------------------------------

class CorpusGrid(Workload):
    """Every shipped (corpus, task, shots) cell replayed through the CLI."""

    name = "corpus-grid"
    SHOTS = (0, 1, 3)
    FILES = {"pet": "pet.jsonl", "decon": "decon.jsonl", "atdp": "atdp.jsonl"}

    def setup(self, where: Path) -> None:
        data = self.root / "data"
        self.paths = {name: data / f for name, f in self.FILES.items()}
        self.datasets = {
            "pet": corpus.load_pet(self.paths["pet"]),
            "decon": corpus.load_canonical(self.paths["decon"]),
            "atdp": corpus.load_canonical(self.paths["atdp"]),
        }
        self.cells = [(name, task, n)
                      for name, ds in self.datasets.items()
                      for task in ds.schema.tasks for n in self.SHOTS]
        self.docs_per_pass = sum(len(self.datasets[name].documents)
                                 for name, _, _ in self.cells)
        documents = by_raw_text(self.datasets.items())
        self.cache = where / "cache"
        client = CachingClient(self.cache, GoldEchoProvider(documents, self.seed))
        template = prompt.load_template()
        for name, task, n in self.cells:
            for text in cell_prompts(self.datasets[name], task, n, template):
                client.complete(ChatRequest(MODEL_ID, text))
        self.expected = {}
        for name, ds in self.datasets.items():
            for task in ds.schema.tasks:
                self.expected[(name, task)] = {
                    doc.id: expected_for(doc, ds.schema, task, damaged_response(
                        doc, ds.schema, task,
                        damage_plan(self.seed, name, doc.id, task)))
                    for doc in ds.documents
                }
        self.reference: dict = {}
        self.warm_dir = where / "warm"

    def warmup(self) -> None:
        self.begin_pass(self.warm_dir, self.warm_dir / "runs")
        run_cli(extract_argv(self.paths["decon"], "MD", 0, self.cache, self.runs))

    def operations(self) -> list:
        return [(cell, lambda cell=cell: run_cli(extract_argv(
            self.paths[cell[0]], cell[1], cell[2], self.cache, self.runs)))
            for cell in self.cells]

    def check(self, cell, result):
        run_dir, why = run_dir_of(result)
        if run_dir is None:
            return _fail(why)
        name, task, _ = cell
        per_doc = self.expected[(name, task)]
        total = sum(per_doc.values(), ZERO)
        p, r, f1 = scores(total)
        score_bytes = (run_dir / "scores.json").read_bytes()
        got = json.loads(score_bytes)
        want = {
            "correct": total.correct, "predicted": total.predicted,
            "gold": total.gold, "parsing_errors": total.errors,
            "document_count": len(per_doc), "precision": round(p, 6),
            "recall": round(r, 6), "f1": round(f1, 6),
        }
        wrong = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
        if wrong:
            return _fail(f"scores.json (got, expected): {wrong}")
        records = [json.loads(line) for line in
                   (run_dir / "predictions.jsonl").read_text("utf-8").splitlines()]
        if sorted(r["document_id"] for r in records) != sorted(per_doc):
            return _fail("predictions.jsonl does not hold one record per document")
        for rec in records:
            doc_id = rec["document_id"]
            e = per_doc[doc_id]
            n_lines = len((run_dir / "responses" / f"{doc_id}.txt")
                          .read_text("utf-8").splitlines())
            got_doc = (len(rec["items"]), rec["parsing_errors"], rec["ignored_lines"])
            if got_doc != (e.predicted, e.errors, e.ignored):
                return _fail(f"{doc_id}: items/errors/ignored {got_doc}, expected "
                             f"{(e.predicted, e.errors, e.ignored)}")
            if sum(got_doc) != n_lines or n_lines != e.lines:
                return _fail(f"{doc_id}: items+errors+ignored={sum(got_doc)}, "
                             f"response lines={n_lines}, planted lines={e.lines}")
        replay = (score_bytes, (run_dir / "table.txt").read_bytes())
        if self.reference.setdefault(cell, replay) != replay:
            return _fail("a replay wrote different scores.json or table.txt bytes")
        return OK


# ---------------------------------------------------------------------------

class LongDoc(Workload):
    """Gold-echo MD, ER and RE replays on PET concatenated 1x and 2x."""

    name = "long-doc"
    SIZES = (1, 2)
    TASKS = ("MD", "ER", "RE")
    docs_per_pass = len(SIZES) * len(TASKS)

    def setup(self, where: Path) -> None:
        pet = corpus.load_pet(self.root / "data" / "pet.jsonl")
        self.cache = where / "cache"
        self.paths = {}
        self.gold = {}
        docs = {}
        for k in self.SIZES:
            doc = build_scale_document(pet.documents, k, f"pet-{k}x")
            docs[k] = doc
            for task in self.TASKS:
                self.gold[(k, task)] = len(gold_lines(doc, task))
        docs["warm"] = pet.documents[0]
        documents = by_raw_text(
            (f"pet-{k}", corpus.Dataset(pet.schema, (doc,))) for k, doc in docs.items())
        client = CachingClient(self.cache, GoldEchoProvider(documents, None))
        template = prompt.load_template()
        for k, doc in docs.items():
            dataset = corpus.Dataset(pet.schema, (doc,))
            self.paths[k] = where / f"pet-{k}.jsonl"
            corpus.save_canonical(dataset, self.paths[k])
            for task in self.TASKS:
                for text in cell_prompts(dataset, task, 0, template):
                    client.complete(ChatRequest(MODEL_ID, text))
        self.order = [(k, t) for k in self.SIZES for t in self.TASKS]
        random.Random(f"long-doc:{self.seed}").shuffle(self.order)
        self.warm_dir = where / "warm"

    def warmup(self) -> None:
        self.begin_pass(self.warm_dir, self.warm_dir / "runs")
        for task in self.TASKS:
            run_cli(extract_argv(self.paths["warm"], task, 0, self.cache, self.runs))

    def operations(self) -> list:
        return [(op, lambda op=op: run_cli(extract_argv(
            self.paths[op[0]], op[1], 0, self.cache, self.runs))) for op in self.order]

    def check(self, op, result):
        run_dir, why = run_dir_of(result)
        if run_dir is None:
            return _fail(why)
        k, task = op
        got = json.loads((run_dir / "scores.json").read_text("utf-8"))
        gold = self.gold[op]
        if (got["predicted"], got["gold"], got["parsing_errors"]) != (gold, gold, 0):
            return _fail(f"{k}x {task}: predicted/gold/errors "
                         f"{got['predicted']}/{got['gold']}/{got['parsing_errors']}, "
                         f"expected {gold}/{gold}/0")
        if (got["precision"], got["recall"], got["f1"]) == (1.0, 1.0, 1.0):
            return OK
        message = f"{k}x {task}: F1 {got['f1']} ({got['correct']} of {gold}), expected 1"
        if task == "RE":
            return ("known", message + "; parser.ground_relations grounds each "
                    "endpoint to its first match")
        return _fail(message)


# ---------------------------------------------------------------------------

class RecordResume(Workload):
    """Record-mode grid over a cache holding a seeded half of the answers."""

    name = "record-resume"
    CELLS = [(t, n) for t in ("MD", "ER", "RE") for n in (0, 1)]
    LATENCY_S = 0.020
    FAILING_SHARE = 0.2
    CLIENT = {"retries": 3, "backoff_base": 0.010, "max_concurrency": 4,
              "min_interval": 0.002}

    def setup(self, where: Path) -> None:
        self.pet = corpus.load_pet(self.root / "data" / "pet.jsonl")
        self.documents = by_raw_text([("pet", self.pet)])
        template = prompt.load_template()
        prompts = sorted({text for task, n in self.CELLS
                          for text in cell_prompts(self.pet, task, n, template)})
        rng = random.Random(f"record-resume:{self.seed}")
        self.prerecorded = frozenset(rng.sample(prompts, len(prompts) // 2))
        self.failing = frozenset(p for p in prompts if rng.random() < self.FAILING_SHARE)
        self.distinct = len(prompts)
        self.planted = len(self.failing - self.prerecorded)
        self.seed_cache = where / "cache"
        client = CachingClient(self.seed_cache, GoldEchoProvider(self.documents, None))
        for text in sorted(self.prerecorded):
            client.complete(ChatRequest(MODEL_ID, text))
        self.gold = {task: sum(len(gold_lines(d, task)) for d in self.pet.documents)
                     for task, _ in self.CELLS}
        self.docs_per_pass = len(self.CELLS) * len(self.pet.documents)
        self.warm_dir = where / "warm"

    def warmup(self) -> None:
        self.begin_pass(self.warm_dir, self.warm_dir / "runs")
        self.operations()[0][1]()

    def _sleep(self, seconds: float) -> None:
        start = time.perf_counter()
        if self.tracer is None:
            time.sleep(seconds)
        else:
            with self.tracer.span("client.sleep", "wait"):
                time.sleep(seconds)
        with self._wait_lock:
            self.wait_s += time.perf_counter() - start

    def begin_pass(self, where: Path, runs: Path) -> None:
        super().begin_pass(where, runs)
        self.cache = where / "cache"
        shutil.copytree(self.seed_cache, self.cache)
        self.wait_s = 0.0
        self._wait_lock = threading.Lock()
        self.provider = LatencyProvider(self.documents, self.LATENCY_S, self.failing,
                                        self.tracer)
        self.client = CachingClient(self.cache, self.provider, mode="record",
                                    sleep=self._sleep, **self.CLIENT)

    def operations(self) -> list:
        return [(cell, lambda cell=cell: pipeline.run_grid(
            self.pet, tasks=(cell[0],), shot_counts=(cell[1],), client=self.client,
            out_root=self.runs)) for cell in self.CELLS]

    def check(self, cell, grid):
        if len(grid.cells) != 1 or grid.cells[0].failure is not None:
            return _fail(f"cell failed: {[c.failure for c in grid.cells]}")
        result = grid.cells[0]
        s = result.scores
        gold = self.gold[cell[0]]
        got = (s.precision, s.recall, s.f1, s.counts.predicted, s.counts.gold,
               result.parsing_errors)
        if got != (1.0, 1.0, 1.0, gold, gold, 0):
            return _fail(f"P/R/F1/predicted/gold/errors {got}, expected "
                         f"1/1/1/{gold}/{gold}/0")
        return OK

    def check_pass(self, results) -> list:
        problems = []
        entries = len(list(self.cache.glob("*.json")))
        if entries != self.distinct:
            problems.append(f"cache holds {entries} entries for {self.distinct} prompts")
        misses = self.distinct - len(self.prerecorded)
        served = self.provider.calls - self.provider.failures
        hits = self.docs_per_pass - served
        if served != misses or hits != len(self.prerecorded):
            problems.append(f"provider answered {served} prompts and the cache "
                            f"{hits}; expected {misses} misses, "
                            f"{len(self.prerecorded)} hits")
        if self.provider.calls != misses + self.planted:
            problems.append(f"{self.provider.calls} provider calls, expected "
                            f"{misses} misses + {self.planted} planted failures")
        return problems

    def pass_numbers(self) -> dict:
        numbers = super().pass_numbers()
        numbers.update({
            "llm.provider.calls": self.provider.calls,
            "llm.provider.retries": self.provider.failures,
            "llm.provider.busy_ms": self.provider.busy_s * 1000,
            "llm.wait_ms": self.wait_s * 1000,
        })
        return numbers


# ---------------------------------------------------------------------------

class BpmnScale(Workload):
    """Gold annotations compiled to BPMN: every PET document, doc33, PET 1x and 4x."""

    name = "bpmn-scale"

    def setup(self, where: Path) -> None:
        pet = corpus.load_pet(self.root / "data" / "pet.jsonl")
        fixture = corpus.load_canonical(self.root / "data" / "fixtures" / "doc33.json")
        order = list(range(len(pet.documents)))
        random.Random(f"bpmn-scale:{self.seed}").shuffle(order)
        self.docs = [(doc, pet.schema) for doc in pet.documents]
        self.docs.append((fixture.documents[0], fixture.schema))
        for k in (1, 4):
            self.docs.append((build_scale_document(pet.documents, k, f"pet-{k}x", order),
                              pet.schema))
        self.docs_per_pass = len(self.docs)
        self.expected = {doc.id: _expected_shape(doc, schema) for doc, schema in self.docs}

    def warmup(self) -> None:
        for doc, schema in self.docs[:3]:
            _compile(doc, schema)

    def operations(self) -> list:
        return [(doc.id, lambda doc=doc, schema=schema: _compile(doc, schema))
                for doc, schema in self.docs]

    def check(self, doc_id, result):
        graph, problems, model, xml = result
        if problems:
            return _fail(f"{doc_id}: validate_graph: {problems}")
        back = bpmn.parse_bpmn(xml).graph
        for part in ("nodes", "lanes", "sequence_flows", "message_flows"):
            if set(getattr(back, part)) != set(getattr(graph, part)):
                return _fail(f"{doc_id}: {part} do not survive serialize/parse")
        if bpmn.serialize_bpmn(model) != xml:
            return _fail(f"{doc_id}: serializing twice gave different bytes")
        shape = _shape(graph)
        if shape != self.expected[doc_id]:
            return _fail(f"{doc_id}: tasks/lanes/starts {shape}, "
                         f"expected {self.expected[doc_id]}")
        return OK

    def check_pass(self, results) -> list:
        tasks = {label: _shape(r[0])[0] for label, r, err in results if r is not None}
        if tasks.get("pet-4x") != 4 * tasks.get("pet-1x", -1):
            return [f"pet-4x has {tasks.get('pet-4x')} tasks, pet-1x {tasks.get('pet-1x')}"]
        return []


def _compile(doc, schema):
    graph = bpmn.compile_document(doc, schema)
    problems = bpmn.validate_graph(graph)
    model = bpmn.layout(graph)
    return graph, problems, model, bpmn.serialize_bpmn(model)


def _shape(graph) -> tuple:
    kinds = [n.kind for n in graph.nodes]
    return kinds.count(bpmn.TASK), len(graph.lanes), kinds.count(bpmn.START)


def _expected_shape(doc, schema) -> tuple:
    """(tasks, lanes, start events) the compiler must produce for gold.

    One task per activity mention; one lane per actor entity or
    singleton actor, plus an unassigned lane when some activity or
    gateway can find no performer: its explicit performer is not an
    actor, or no actor mention ends left of it.
    """
    def role(roles, type_name):
        key = norm_type(type_name)
        return next((r for r, names in roles.items()
                     if key in {norm_type(n) for n in names}), None)

    roles = {m.id: role(schema.mention_roles, m.mention_type) for m in doc.mentions}
    actors = {mid for mid, r in roles.items() if r == "actor"}
    actor_entities = [e for e in doc.entities if e.mention_ids and e.mention_ids <= actors]
    in_entities = set().union(*(e.mention_ids for e in actor_entities))
    lanes = len(actor_entities) + len(actors - in_entities)
    actor_ends = [m.token_indices[-1] for m in doc.mentions if m.id in actors]

    def has_left_actor(m) -> bool:
        return any(end < m.token_indices[0] for end in actor_ends)

    performer: dict = {}
    for r in doc.relations:
        if role(schema.relation_roles, r.relation_type) == "performer":
            performer.setdefault(r.source_mention_id, r.target_mention_id)
    unassigned = lanes == 0
    for m in doc.mentions:
        if roles[m.id] == "activity":
            unassigned |= (performer[m.id] not in actors) if m.id in performer \
                else not has_left_actor(m)
        elif roles[m.id] in ("xor_gateway", "and_gateway"):
            unassigned |= not has_left_actor(m)
    tasks = sum(1 for r in roles.values() if r == "activity")
    return tasks, lanes + unassigned, 1


WORKLOADS = {w.name: w for w in (CorpusGrid, LongDoc, RecordResume, BpmnScale)}
