"""Pipeline orchestration tests.

The gold-echo provider closes the loop: it answers every prompt with
the target document's own annotations rendered in the output
grammar, so every score must come out exactly 1.  Anything below
that signals a bug in prompting, parsing, grounding, or scoring.
"""

import hashlib
import json
import threading
from pathlib import Path

import pytest

from procex import corpus, parser, pipeline
from procex.cli import main
from procex.corpus import Dataset
from procex.llm import CachingClient, ChatResponse, ProviderError
from procex.parser import GroundedMention
from procex.pipeline import (
    extract_documents,
    per_document_seed,
    render_grid_table,
    run_ablation,
    run_cell,
    run_grid,
)
from procex.prompt import TASK_GOALS, PromptConfig

from echo_provider import gold_echo

DATA = Path(__file__).resolve().parent.parent / "data"


def echo_client(dataset, tmp_path, name="cache"):
    return CachingClient(tmp_path / name, gold_echo(dataset), mode="record")


@pytest.fixture(scope="module")
def pet():
    return corpus.load_pet(DATA / "pet.jsonl")


@pytest.fixture(scope="module")
def decon():
    return corpus.load_canonical(DATA / "decon.jsonl")


def md_config(dataset, **kw):
    return PromptConfig(task="MD", schema=dataset.schema, **kw)


# ---------------------------------------------------------------------------
# extract_documents

def test_extract_gold_echo_scores_one(pet, tmp_path):
    doc = pet.documents[0]
    client = echo_client(pet, tmp_path)
    ((_, _, report),) = extract_documents([doc], md_config(pet), client)
    assert report.error_count == 0
    predictions, scores = pipeline.score_document(
        "MD", report, doc, pipeline.MatchPolicy.from_schema(pet.schema)
    )
    assert all(isinstance(p, GroundedMention) for p in predictions)
    assert scores.f1 == 1.0


def test_extract_empty_response(pet, tmp_path):
    client = CachingClient(
        tmp_path / "c", lambda req: ChatResponse("", 0, 0, "empty"),
        mode="record",
    )
    ((_, _, report),) = extract_documents(pet.documents[:1], md_config(pet), client)
    assert report.items == ()
    assert report.error_count == 0


def test_extract_never_includes_target_as_shot(pet, tmp_path):
    client = echo_client(pet, tmp_path)
    docs = pet.documents[:6]
    extracted = extract_documents(docs, md_config(pet, shot_count=3), client,
                                  shot_pool=pet.documents)
    for doc, (rendered, _, _) in zip(docs, extracted):
        assert doc.id not in rendered.shot_ids
        assert len(rendered.shot_ids) == 3


def test_per_document_seeds_differ_per_doc(pet):
    base = md_config(pet, shot_count=1, shot_seed=7)
    a = pipeline._document_config(base, "doc-1.1")
    b = pipeline._document_config(base, "doc-1.2")
    assert a.shot_seed != b.shot_seed
    assert a.shot_seed == per_document_seed(7, "doc-1.1")


# ---------------------------------------------------------------------------
# cells and grids

def test_run_cell_perfect_and_persisted(pet, tmp_path):
    client = echo_client(pet, tmp_path)
    out = tmp_path / "runs"
    cell = run_cell(pet, md_config(pet), client, out_root=out)
    assert cell.scores.f1 == 1.0
    assert cell.parsing_errors == 0
    run_dir = out / cell.manifest_id
    assert (run_dir / "manifest.json").is_file()
    assert len(list((run_dir / "prompts").glob("*.txt"))) == len(pet.documents)
    assert len(list((run_dir / "responses").glob("*.txt"))) == len(pet.documents)
    lines = (run_dir / "predictions.jsonl").read_text().splitlines()
    assert len(lines) == len(pet.documents)
    scores = json.loads((run_dir / "scores.json").read_text())
    assert scores["f1"] == 1.0
    assert scores["document_count"] == len(pet.documents)
    table = (run_dir / "table.txt").read_text()
    assert "zero-shot" in table
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert set(manifest["prompt_fingerprints"]) == {d.id for d in pet.documents}


def test_run_cell_rejects_a_config_for_another_schema(pet, decon, tmp_path):
    client = echo_client(pet, tmp_path)
    with pytest.raises(ValueError) as err:
        run_cell(pet, md_config(decon), client, out_root=tmp_path / "runs")
    assert str(err.value) == (
        f"config schema {decon.schema.dataset_name!r} is not the schema of "
        f"dataset {pet.schema.dataset_name!r}")
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "cache").exists()  # no prompt was sent


@pytest.mark.parametrize("runner", [run_grid, run_ablation])
def test_runners_need_a_client(runner, pet):
    # without one, every cell would fail on its first document
    with pytest.raises(TypeError, match="client"):
        runner(pet, ("MD",))


def test_run_grid_gold_echo_all_cells_one(pet, tmp_path):
    client = echo_client(pet, tmp_path)
    result = run_grid(pet, client=client)
    assert len(result.cells) == 9  # MD, ER, RE x 0, 1, 3 shots
    for cell in result.cells:
        assert cell.failure is None, cell
        assert cell.scores.precision == 1.0
        assert cell.scores.recall == 1.0
        assert cell.scores.f1 == 1.0
        assert cell.parsing_errors == 0
    assert "task: RE" in result.table_text
    assert "baseline (reported)" in result.table_text
    assert "0.730" in result.table_text  # pet MD reference row


def test_run_grid_empty_dataset(pet, tmp_path):
    # every cell runs and scores nothing, as run_cell and run_ablation do
    empty = Dataset(schema=pet.schema, documents=())
    client = CachingClient(tmp_path / "c", mode="replay")
    result = run_grid(empty, client=client, out_root=tmp_path / "runs")
    assert [(c.task, c.shot_count) for c in result.cells] == [
        (task, n) for task in pet.schema.tasks for n in (0, 1, 3)]
    assert all(c.failure is None and c.scores.counts.predicted == 0
               and c.scores.counts.gold == 0 for c in result.cells)
    assert "zero-shot" in result.table_text
    assert (tmp_path / "runs" / "table.txt").read_text("utf-8") == result.table_text


def test_run_grid_marks_failed_cells(pet, tmp_path):
    def flaky(request):
        if TASK_GOALS["RE"] in request.prompt_text:
            raise ProviderError("quota exhausted")
        return gold_echo(pet)(request)

    client = CachingClient(tmp_path / "c", flaky, mode="record", retries=1)
    result = run_grid(pet, tasks=("MD", "RE"), shot_counts=(0,), client=client)
    by_task = {c.task: c for c in result.cells}
    assert by_task["MD"].failure is None
    assert by_task["RE"].failure is not None
    assert "quota exhausted" in by_task["RE"].failure
    assert sum(c.failure is not None for c in result.cells) == 1
    assert "[ProviderError" in result.table_text


def test_grid_replay_reproduces_bytes(pet, tmp_path):
    cache = tmp_path / "cache"
    client = CachingClient(cache, gold_echo(pet), mode="record")
    recorded = run_grid(
        pet, tasks=("MD",), shot_counts=(0, 1), client=client,
        out_root=tmp_path / "rec",
    )
    replay1 = run_grid(
        pet, tasks=("MD",), shot_counts=(0, 1),
        client=CachingClient(cache, mode="replay"), out_root=tmp_path / "r1",
    )
    replay2 = run_grid(
        pet, tasks=("MD",), shot_counts=(0, 1),
        client=CachingClient(cache, mode="replay"), out_root=tmp_path / "r2",
    )
    assert replay1.table_text == recorded.table_text == replay2.table_text
    for cell in recorded.cells:
        rec_dir = tmp_path / "rec" / cell.manifest_id
        r1_dir = tmp_path / "r1" / cell.manifest_id
        r2_dir = tmp_path / "r2" / cell.manifest_id
        for name in ("scores.json", "table.txt", "predictions.jsonl"):
            assert (r1_dir / name).read_bytes() == (rec_dir / name).read_bytes()
        # replay runs pin the timestamp, so even manifests repeat
        assert (r1_dir / "manifest.json").read_bytes() == \
            (r2_dir / "manifest.json").read_bytes()


def test_manifest_id_ignores_timestamp(pet, tmp_path):
    cache = tmp_path / "cache"
    config = md_config(pet)
    recorded = run_cell(pet, config, CachingClient(cache, gold_echo(pet), mode="record"),
                        out_root=tmp_path / "rec")
    replayed = run_cell(pet, config, CachingClient(cache, mode="replay"),
                        out_root=tmp_path / "rep")
    assert recorded.manifest_id == replayed.manifest_id

    def manifest(root):
        return json.loads((root / recorded.manifest_id / "manifest.json").read_text("utf-8"))

    rec, rep = manifest(tmp_path / "rec"), manifest(tmp_path / "rep")
    assert (rec["cache_mode"], rep["cache_mode"]) == ("record", "replay")
    assert rep["timestamp"] == pipeline.REPLAY_TIMESTAMP
    for m in (rec, rep):
        del m["cache_mode"], m["timestamp"]
    assert rec == rep

    other = run_cell(pet, md_config(pet, shot_count=1),
                     CachingClient(cache, gold_echo(pet), mode="record"))
    assert other.manifest_id != recorded.manifest_id


def test_render_grid_table_marks_missing_reference():
    cell = pipeline.CellResult("decon", "MD", 0, None, 0, None,
                               failure="ProviderError: boom")
    text = render_grid_table([cell])
    assert "dataset: decon" in text
    assert "baseline" not in text  # decon MD ships no baseline row
    assert "[ProviderError: boom]" in text


# ---------------------------------------------------------------------------
# ablation

def test_ablation_gold_echo(decon, tmp_path):
    client = echo_client(decon, tmp_path)
    rows = run_ablation(decon, tasks=("MD", "CE"), client=client)
    labels = [r.label for r in rows if r.task == "MD"]
    assert labels == [
        "Baseline", "No Format Examples", "No Context Manager", "No Persona",
        "No Meta Language", "No Chain of Thought", "No Disambiguation",
        "No Reflection", "No Fact Check List", "Very Short Prompt",
    ]
    for row in rows:
        assert row.failure is None
        assert row.absolute_f1 == 1.0
        assert row.relative_f1 == 0.0
        assert row.parsing_errors == 0
    assert rows[0].relative_f1 == 0.0


def test_ablation_errors_isolated_to_one_variant(decon, tmp_path):
    marker = "Well formed lines look like this:"

    def provider(request):
        if marker not in request.prompt_text:
            return ChatResponse(
                "no pipes here at all\nstill none", 0, 0, "garbage"
            )
        return gold_echo(decon)(request)

    client = CachingClient(tmp_path / "c", provider, mode="record")
    rows = run_ablation(decon, tasks=("MD",), client=client)
    for row in rows:
        if row.label == "No Format Examples":
            assert row.parsing_errors == 2 * len(decon.documents)
            assert row.absolute_f1 == 0.0
            assert row.relative_f1 == pytest.approx(-1.0)
        else:
            assert row.parsing_errors == 0
            assert row.absolute_f1 == 1.0


def test_ablation_failed_variant_marked(decon, tmp_path):
    def provider(request):
        if "annotate them precisely" not in request.prompt_text:
            # only the No Persona variant lacks the persona wording
            raise ProviderError("refused")
        return gold_echo(decon)(request)

    client = CachingClient(tmp_path / "c", provider, mode="record", retries=1)
    rows = run_ablation(decon, tasks=("MD",), client=client)
    by_label = {r.label: r for r in rows}
    assert by_label["No Persona"].failure is not None
    assert by_label["Baseline"].failure is None
    assert by_label["Baseline"].absolute_f1 == 1.0
    table = pipeline.render_ablation_table(rows)
    assert "[ProviderError" in table


def test_ablation_table_without_baseline_marks_relative_f1():
    rows = (
        pipeline.AblationRow("MD", "Baseline", None, None, 0,
                             failure="ProviderError: refused"),
        pipeline.AblationRow("MD", "No Persona", 0.5, None, 2),
    )
    lines = pipeline.render_ablation_table(rows).splitlines()
    row = next(line for line in lines if "No Persona" in line)
    assert row.split() == ["No", "Persona", "-", "0.500", "2"]


def test_ablation_persists_table(decon, tmp_path):
    client = echo_client(decon, tmp_path)
    out = tmp_path / "abl"
    rows = run_ablation(decon, tasks=("MD",), client=client, out_root=out)
    assert (out / "ablation.json").is_file()
    text = (out / "table.txt").read_text()
    assert "Very Short Prompt" in text
    saved = json.loads((out / "ablation.json").read_text())
    assert len(saved["rows"]) == len(rows)


def test_replay_fixture_manifest_id_is_pinned(pet, tmp_path):
    # the id hashes every manifest field but the timestamp and cache mode
    client = CachingClient(DATA / "fixtures" / "replay_cache", mode="replay")
    cell = run_cell(pet, PromptConfig(task="MD", schema=pet.schema), client,
                    out_root=tmp_path, model_id="stub-fixture")
    assert cell.manifest_id == "ac2bd6b32bbb"
    manifest = json.loads((tmp_path / cell.manifest_id / "manifest.json").read_text("utf-8"))
    assert sorted(manifest) == ["cache_mode", "dataset_name", "model_id", "prompt_fingerprints",
                                "shot_count", "shot_seed", "task", "timestamp",
                                "toolkit_version"]


def test_replay_cell_completes_on_the_calling_thread(pet, tmp_path):
    # replay calls no provider, so there is nothing for a pool to bound
    threads = set()

    class Recording(CachingClient):
        def complete(self, request):
            threads.add(threading.get_ident())
            return super().complete(request)

    client = Recording(DATA / "fixtures" / "replay_cache", mode="replay")
    cell = run_cell(pet, PromptConfig(task="MD", schema=pet.schema), client,
                    out_root=tmp_path, model_id="stub-fixture")
    assert cell.scores.f1 > 0
    assert threads == {threading.get_ident()}


def test_record_cell_sends_only_cache_misses_to_the_pool(pet, tmp_path):
    # hits are answered on the calling thread; the pool carries provider calls
    dataset = Dataset(pet.schema, pet.documents[:8])
    config = md_config(pet)
    run_cell(Dataset(pet.schema, dataset.documents[::2]), config,
             echo_client(pet, tmp_path))
    echo = gold_echo(pet)
    provider_threads = []
    answered = []

    def provider(request):
        provider_threads.append(threading.get_ident())
        return echo(request)

    class Recording(CachingClient):
        def complete(self, request):
            response = super().complete(request)
            answered.append((response.retrieved_from_cache, threading.get_ident()))
            return response

    client = Recording(tmp_path / "cache", provider, "record")
    cell = run_cell(dataset, config, client)
    assert cell.scores.f1 == 1.0
    caller = threading.get_ident()
    hits = [thread for cached, thread in answered if cached]
    misses = [thread for cached, thread in answered if not cached]
    assert len(hits) == 4 and set(hits) == {caller}
    assert len(misses) == 4 and caller not in misses
    assert len(provider_threads) == 4 and caller not in provider_threads


def test_replay_cell_builds_one_window_index_per_document(pet, tmp_path, monkeypatch):
    built = []

    class Counting(parser.WindowIndex):
        def __init__(self, doc):
            built.append(doc.id)
            super().__init__(doc)

    monkeypatch.setattr(parser, "WindowIndex", Counting)
    client = CachingClient(DATA / "fixtures" / "replay_cache", mode="replay")
    run_cell(pet, PromptConfig(task="MD", schema=pet.schema), client,
             out_root=tmp_path, model_id="stub-fixture")
    assert built == [doc.id for doc in pet.documents]


# sha256 over the evaluate line of each cell of a gold-echo replay grid (the
# three shipped corpora, each schema task at 0, 1 and 3 shots), then the
# relative path and bytes of every file the grids write; recorded before a
# run became one record per document
RUN_DIGEST = "1ae37e3d78dc8287f17944994a1e6c097a020c04f73493c251c20957c6a2a807"


def test_run_bytes_unchanged(capsys, tmp_path):
    digest = hashlib.sha256()
    replay = tmp_path / "replay"
    cells = 0
    for name, load in (("pet", corpus.load_pet), ("decon", corpus.load_canonical),
                       ("atdp", corpus.load_canonical)):
        path = DATA / f"{name}.jsonl"
        dataset = load(path)
        cache = tmp_path / "cache" / name
        run_grid(dataset, client=CachingClient(cache, gold_echo(dataset), mode="record"),
                 out_root=tmp_path / "record" / name)
        result = run_grid(dataset, client=CachingClient(cache, mode="replay"),
                          out_root=replay / name)
        for cell in result.cells:
            assert cell.failure is None, cell
            assert main(["evaluate", "--dataset", str(path), "--task", cell.task,
                         "--predictions",
                         str(replay / name / cell.manifest_id / "predictions.jsonl")]) == 0
            digest.update(capsys.readouterr().out.encode())
            cells += 1
    files = sorted((p.relative_to(replay).as_posix(), p) for p in replay.rglob("*")
                   if p.is_file())
    for relative, file in files:
        digest.update(json.dumps(relative).encode() + b"\n" + file.read_bytes())
    assert (cells, len(files)) == (21, 1317)
    assert digest.hexdigest() == RUN_DIGEST
