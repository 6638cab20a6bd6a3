"""End-to-end checks of the command line interface.

Happy paths record a response cache programmatically with a gold
echoing stub, then drive the CLI in replay mode against it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import procex
from procex import cli, corpus, pipeline
from procex.bpmn import parse_bpmn
from procex.cli import main
from procex.corpus import Dataset, Document, Mention, Token, save_canonical
from procex.llm import CachingClient, ChatRequest, ChatResponse
from procex.pipeline import extract_document, run_cell, run_grid
from procex.prompt import PromptConfig, PromptError, render_gold

DATA = Path(__file__).parent.parent / "data"

TASK_MARKERS = {
    "MD": "one line per mention",
    "ER": "one line per entity",
    "RE": "one line per relation",
    "CE": "one line per constraint",
}


def gold_echo(dataset):
    def provider(request: ChatRequest) -> ChatResponse:
        text = request.prompt_text
        task = next(t for t, mark in TASK_MARKERS.items() if mark in text)
        raw = text.rsplit("Input: ", 1)[1][: -len("\nOutput:\n")]
        doc = next(d for d in dataset.documents if d.raw_text == raw)
        return ChatResponse("\n".join(render_gold(doc, task)), 0, 0, "gold-echo")

    return provider


@pytest.fixture(scope="module")
def pet():
    return corpus.load_pet(DATA / "pet.jsonl")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("PROCEX_MODEL", "PROCEX_MODE", "PROCEX_CACHE", "PROCEX_OUT",
                 "PROCEX_ENDPOINT", "PROCEX_API_KEY"):
        monkeypatch.delenv(name, raising=False)


def record_md_cache(pet, cache_dir, model_id="stub"):
    client = CachingClient(cache_dir, gold_echo(pet), mode="record")
    config = PromptConfig(task="MD", schema=pet.schema)
    for doc in pet.documents:
        extract_document(doc, config, client, shot_pool=pet.documents,
                         model_id=model_id)


# ---------------------------------------------------------------------------
# exit codes and diagnostics

def test_help_lists_subcommands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("extract", "evaluate", "grid", "ablate", "generate-bpmn",
                 "cache"):
        assert name in out
    assert "--dataset" in out  # the epilog enumerates shared flags


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "procex" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "error: usage:" in err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["extract", "--frobnicate"]) == 1
    assert "error: usage:" in capsys.readouterr().err


def test_missing_dataset_file_is_data_error(capsys, tmp_path):
    code = main(["extract", "--dataset", str(tmp_path / "no.jsonl"),
                 "--task", "MD", "--mode", "replay"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: data:")


def test_unknown_task_is_data_error(capsys):
    code = main(["extract", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "CE", "--mode", "replay"])
    assert code == 2
    assert "'CE'" in capsys.readouterr().err


def test_unknown_document_is_data_error(capsys, tmp_path):
    code = main(["extract", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--doc", "doc-404", "--mode", "replay",
                 "--cache", str(tmp_path / "c")])
    assert code == 2
    assert "doc-404" in capsys.readouterr().err


def test_replay_miss_is_provider_error(capsys, tmp_path):
    code = main(["extract", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--doc", "doc-1.1", "--mode", "replay",
                 "--cache", str(tmp_path / "empty")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: provider:")


def test_cli_import_loads_no_network_or_bpmn_code():
    # replay, evaluate and cache commands never reach the network, and
    # only generate-bpmn compiles BPMN; xml.sax imports urllib.request
    probe = ("import sys, procex.cli; print(' '.join(sorted(m for m in "
             "('requests', 'urllib.request', 'xml.sax', 'procex.bpmn') "
             "if m in sys.modules)))")
    src = str(Path(procex.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src},
                            check=True)
    assert result.stdout.strip() == ""


def record_one_entry(pet, cache_dir):
    """Record the MD zero-shot entry of doc-1.1; return its path."""
    client = CachingClient(cache_dir, gold_echo(pet), mode="record")
    config = PromptConfig(task="MD", schema=pet.schema)
    extract_document(pet.document("doc-1.1"), config, client,
                     shot_pool=pet.documents)
    (path,) = cache_dir.glob("*.json")
    return path


def truncate_entry(path):
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")


def set_entry_text_to_a_number(path):
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["response"]["text"] = 5
    path.write_text(json.dumps(entry), encoding="utf-8")


@pytest.mark.parametrize("damage", [truncate_entry, set_entry_text_to_a_number])
def test_damaged_cache_entry_is_data_error_naming_it(damage, pet, capsys,
                                                     tmp_path):
    path = record_one_entry(pet, tmp_path / "c")
    damage(path)
    code = main(["extract", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--doc", "doc-1.1", "--mode", "replay",
                 "--cache", str(tmp_path / "c")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: data: {path}: "), err


def test_record_without_endpoint_is_provider_error(capsys, tmp_path):
    code = main(["extract", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--doc", "doc-1.1", "--mode", "record",
                 "--cache", str(tmp_path / "c")])
    assert code == 3
    assert "no endpoint configured" in capsys.readouterr().err


class _NoProvider:
    @staticmethod
    def from_env():
        pytest.fail("a provider was built for a mode that is not record")


@pytest.mark.parametrize("source", ["environment", "config"])
def test_misspelled_mode_is_data_error_before_any_provider(source, capsys,
                                                           tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "HttpProvider", _NoProvider)
    argv = ["extract", "--dataset", str(DATA / "pet.jsonl"), "--task", "MD",
            "--doc", "doc-1.1", "--cache", str(tmp_path / "c")]
    if source == "environment":
        monkeypatch.setenv("PROCEX_MODE", "replya")
    else:
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"mode": "replya"}), encoding="utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: data: unknown mode 'replya'"], err


MALFORMED_CONFIGS = {
    "invalid-json": "{not json",
    "cache-a-number": json.dumps({"cache": 5}),
    "mode-a-number": json.dumps({"mode": 5}),
    "not-an-object": json.dumps(["model", "m1"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_is_data_error_naming_it(case, capsys, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(MALFORMED_CONFIGS[case], encoding="utf-8")
    code = main(["cache", "list", "--cache", str(tmp_path / "c"),
                 "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: data: {config}: "), err


# ---------------------------------------------------------------------------
# happy paths over a recorded cache

def test_extract_single_document(pet, capsys, tmp_path):
    cache = tmp_path / "cache"
    record_md_cache(pet, cache)
    code = main(["extract", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--doc", "doc-1.1",
                 "--mode", "replay", "--cache", str(cache)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["document_id"] == "doc-1.1"
    assert record["parsing_errors"] == 0
    doc = pet.document("doc-1.1")
    assert len(record["items"]) == len(doc.mentions)


def test_extract_dataset_writes_run(pet, capsys, tmp_path):
    cache = tmp_path / "cache"
    record_md_cache(pet, cache)
    out = tmp_path / "runs"
    code = main(["extract", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--mode", "replay",
                 "--cache", str(cache), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "dataset: pet" in stdout
    assert "1.000" in stdout
    run_dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    for name in ("manifest.json", "scores.json", "predictions.jsonl",
                 "table.txt"):
        assert (run_dirs[0] / name).is_file()


def test_evaluate_gold_predictions(pet, capsys, tmp_path):
    cache = tmp_path / "cache"
    client = CachingClient(cache, gold_echo(pet), mode="record")
    cell = run_cell(pet, "MD", PromptConfig(task="MD", schema=pet.schema),
                    client, out_root=tmp_path / "runs")
    predictions = tmp_path / "runs" / cell.manifest_id / "predictions.jsonl"
    code = main(["evaluate", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--predictions", str(predictions)])
    assert code == 0
    assert "MD: P=1.00 R=1.00 F1=1.00" in capsys.readouterr().out


def md_predictions_file(pet, tmp_path):
    client = CachingClient(tmp_path / "cache", gold_echo(pet), mode="record")
    cell = run_cell(pet, "MD", PromptConfig(task="MD", schema=pet.schema),
                    client, out_root=tmp_path / "runs")
    return tmp_path / "runs" / cell.manifest_id / "predictions.jsonl"


def test_evaluate_counts_missing_documents_as_empty(pet, capsys, tmp_path):
    predictions = md_predictions_file(pet, tmp_path)
    lines = predictions.read_text(encoding="utf-8").splitlines()
    dropped = max(pet.documents, key=lambda d: len(d.mentions))
    kept = [line for line in lines
            if json.loads(line)["document_id"] != dropped.id]
    assert len(kept) == len(lines) - 1
    predictions.write_text("\n".join(kept) + "\n", encoding="utf-8")

    code = main(["evaluate", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--predictions", str(predictions)])
    assert code == 0
    gold = sum(len(d.mentions) for d in pet.documents)
    recall = (gold - len(dropped.mentions)) / gold
    assert recall < 0.995
    out = capsys.readouterr().out
    assert f"P=1.00 R={recall:.2f}" in out
    assert f"(documents: {len(pet.documents)})" in out


def test_evaluate_rejects_duplicate_document_records(pet, capsys, tmp_path):
    predictions = md_predictions_file(pet, tmp_path)
    lines = predictions.read_text(encoding="utf-8").splitlines()
    predictions.write_text("\n".join(lines + lines[:1]) + "\n",
                           encoding="utf-8")

    code = main(["evaluate", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--predictions", str(predictions)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: ")
    assert json.loads(lines[0])["document_id"] in err


def test_evaluate_task_mismatch(pet, capsys, tmp_path):
    cache = tmp_path / "cache"
    client = CachingClient(cache, gold_echo(pet), mode="record")
    cell = run_cell(pet, "MD", PromptConfig(task="MD", schema=pet.schema),
                    client, out_root=tmp_path / "runs")
    predictions = tmp_path / "runs" / cell.manifest_id / "predictions.jsonl"
    code = main(["evaluate", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "RE", "--predictions", str(predictions)])
    assert code == 2
    assert "expected 'RE'" in capsys.readouterr().err


def test_grid_prints_and_persists_table(pet, capsys, tmp_path):
    cache = tmp_path / "cache"
    client = CachingClient(cache, gold_echo(pet), mode="record")
    run_grid(pet, tasks=("MD", "RE"), shot_counts=(0,), client=client)
    out = tmp_path / "grid"
    code = main(["grid", "--dataset", str(DATA / "pet.jsonl"),
                 "--tasks", "MD,RE", "--shots", "0",
                 "--mode", "replay", "--cache", str(cache),
                 "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "task: MD" in stdout
    assert "task: RE" in stdout
    assert (out / "table.txt").read_text(encoding="utf-8") == stdout


def test_grid_failure_exit_code(pet, capsys, tmp_path):
    # an empty replay cache fails every cell
    code = main(["grid", "--dataset", str(DATA / "pet.jsonl"),
                 "--tasks", "MD", "--shots", "0",
                 "--mode", "replay", "--cache", str(tmp_path / "none"),
                 "--out", str(tmp_path / "grid")])
    assert code == 3
    captured = capsys.readouterr()
    assert "error: provider:" in captured.err
    assert "[" in captured.out  # the table still renders, with failure marks


def test_grid_data_failure_is_a_data_error(capsys, tmp_path):
    # 50 shots cannot be drawn from the 17-document decon corpus
    code = main(["grid", "--dataset", str(DATA / "decon.jsonl"),
                 "--tasks", "MD", "--shots", "50",
                 "--mode", "replay", "--cache", str(tmp_path / "none"),
                 "--out", str(tmp_path / "grid")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: 1 cell(s) failed; first: PromptError:")


def test_ablate_failure_category_follows_the_exception(pet, capsys, tmp_path,
                                                       monkeypatch):
    def failing_cell(dataset, task, config, *args, **kwargs):
        raise PromptError("shot pool too small")

    monkeypatch.setattr(pipeline, "run_cell", failing_cell)
    argv = ["ablate", "--dataset", str(DATA / "pet.jsonl"), "--tasks", "MD",
            "--mode", "replay", "--cache", str(tmp_path / "none"),
            "--out", str(tmp_path / "abl")]
    assert main(argv) == 2
    assert "error: data: 10 variant(s) failed" in capsys.readouterr().err
    saved = json.loads((tmp_path / "abl" / "ablation.json").read_text())
    assert saved["rows"][0]["failure"] == "PromptError: shot pool too small"
    assert "error" not in saved["rows"][0]

    monkeypatch.undo()
    assert main(argv) == 3  # an empty replay cache is a provider failure
    assert "error: provider: 10 variant(s) failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# settings precedence: flag > environment > config file

def test_model_precedence(pet, capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    record_md_cache(pet, cache, model_id="m1")
    config_file = tmp_path / "conf.json"
    config_file.write_text(json.dumps({"model": "m1"}), encoding="utf-8")
    base = ["extract", "--dataset", str(DATA / "pet.jsonl"),
            "--task", "MD", "--doc", "doc-1.1",
            "--mode", "replay", "--cache", str(cache),
            "--config", str(config_file)]

    assert main(base) == 0  # config file supplies the recorded model
    capsys.readouterr()

    monkeypatch.setenv("PROCEX_MODEL", "m2")
    assert main(base) == 3  # environment beats the config file: cache miss
    capsys.readouterr()

    assert main(base + ["--model", "m1"]) == 0  # flag beats the environment
    capsys.readouterr()


# ---------------------------------------------------------------------------
# bpmn generation

def test_generate_bpmn_from_gold(capsys, tmp_path):
    out = tmp_path / "claim.bpmn"
    code = main(["generate-bpmn", "--in", str(DATA / "fixtures" / "doc33.json"),
                 "--out", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text.count("<bpmn:task ") == 5
    assert text.count("<bpmn:participant ") == 1
    model = parse_bpmn(text)
    assert len(model.graph.lanes) == 2


def test_generate_bpmn_needs_doc_for_multi_document_files(capsys):
    code = main(["generate-bpmn", "--in", str(DATA / "decon.jsonl"),
                 "--out", "/tmp/never.bpmn"])
    assert code == 2
    assert "--doc" in capsys.readouterr().err


def test_generate_bpmn_from_predictions(capsys, tmp_path):
    schema = corpus.load_schema("pet")
    tokens = []
    for s_idx, sentence in enumerate(["The clerk registers the claim .",
                                      "The clerk archives the file ."]):
        for word in sentence.split():
            tokens.append(Token(word, len(tokens), s_idx))
    doc = Document(
        id="d1", raw_text=" ".join(t.text for t in tokens),
        tokens=tuple(tokens),
        mentions=(Mention("m0", "Activity", (2,)),),
    )
    source = tmp_path / "tiny.jsonl"
    save_canonical(Dataset(schema=schema, documents=(doc,)), source)

    predictions = tmp_path / "pred.jsonl"
    items = [
        {"kind": "mention", "type": "Actor", "surface": "The clerk"},
        {"kind": "mention", "type": "Activity", "surface": "registers"},
        {"kind": "mention", "type": "Activity", "surface": "archives"},
        {"kind": "relation", "type": "flow", "source": "registers",
         "target": "archives"},
    ]
    predictions.write_text(
        json.dumps({"document_id": "d1", "task": "MD", "items": items}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "tiny.bpmn"
    code = main(["generate-bpmn", "--in", str(source),
                 "--predictions", str(predictions), "--out", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text.count("<bpmn:task ") == 2
    model = parse_bpmn(text)
    labels = sorted(n.label for n in model.graph.nodes if n.kind == "task")
    assert labels == ["archives", "registers"]


# ---------------------------------------------------------------------------
# cache management

def test_cache_list_and_purge(pet, capsys, tmp_path):
    cache = tmp_path / "cache"
    record_md_cache(pet, cache)
    entry_count = len(list(cache.glob("*.json")))
    assert entry_count == len(pet.documents)

    assert main(["cache", "list", "--cache", str(cache)]) == 0
    out = capsys.readouterr().out
    assert f"{entry_count} cache entries" in out

    # nothing is older than an hour, so a guarded purge removes nothing
    assert main(["cache", "purge", "--cache", str(cache),
                 "--older-than", "3600"]) == 0
    assert "removed 0" in capsys.readouterr().out
    assert len(list(cache.glob("*.json"))) == entry_count

    assert main(["cache", "purge", "--cache", str(cache)]) == 0
    assert f"removed {entry_count}" in capsys.readouterr().out
    assert list(cache.glob("*.json")) == []


# ---------------------------------------------------------------------------
# malformed predictions files

MALFORMED_RECORDS = {
    "invalid-json": "{not json",
    "not-an-object": "[1, 2]",
    "item-not-an-object": '{"document_id": "DOC", "task": "MD", "items": [5]}',
    "item-missing-key": ('{"document_id": "DOC", "task": "MD", '
                         '"items": [{"kind": "mention", "surface": "x"}]}'),
    "record-missing-key": '{"task": "MD", "items": []}',
    "item-field-not-a-string": ('{"document_id": "DOC", "task": "MD", "items": '
                                '[{"kind": "mention", "type": "Actor", '
                                '"surface": 5}]}'),
    "item-list-holds-a-number": ('{"document_id": "DOC", "task": "MD", "items": '
                                 '[{"kind": "cluster", "surfaces": ["x", 5]}]}'),
}


def write_malformed(tmp_path, good_id, bad_id, case):
    path = tmp_path / "pred.jsonl"
    good = json.dumps({"document_id": good_id, "task": "MD", "items": []})
    bad = MALFORMED_RECORDS[case].replace("DOC", bad_id)
    path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
    return path


def assert_one_data_error(capsys, code, path):
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: data: {path}:2: "), err


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_evaluate_malformed_predictions_is_data_error(case, capsys, tmp_path):
    path = write_malformed(tmp_path, "doc-1.1", "doc-1.2", case)
    code = main(["evaluate", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--predictions", str(path)])
    assert_one_data_error(capsys, code, path)


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_generate_bpmn_malformed_predictions_is_data_error(case, capsys,
                                                           tmp_path):
    path = write_malformed(tmp_path, "doc-3.3", "doc-3.3", case)
    code = main(["generate-bpmn", "--in", str(DATA / "fixtures" / "doc33.json"),
                 "--predictions", str(path), "--out", str(tmp_path / "x.bpmn")])
    assert_one_data_error(capsys, code, path)


# Dataset records with a field of the wrong JSON type: (file, line, change)
def _set(field, value):
    return lambda record: record.__setitem__(field, value)


MALFORMED_DATASETS = {
    "canonical-tokens-not-a-list": ("decon.jsonl", 2, _set("tokens", 5)),
    "canonical-constraint-not-an-object": ("decon.jsonl", 2, _set("constraints", [5])),
    "canonical-mentions-null": ("decon.jsonl", 2, _set("mentions", None)),
    "pet-relations-an-object": ("pet.jsonl", 1, _set("relations", {"x": 1})),
    "pet-sentence-ids-all-null": (
        "pet.jsonl", 1,
        lambda record: record.__setitem__("sentence-IDs",
                                          [None] * len(record["sentence-IDs"])),
    ),
    "pet-tokens-not-a-list": ("pet.jsonl", 1, _set("tokens", 5)),
}

# Schema records with a field of the wrong JSON type or a missing field,
# as a canonical file's header (line 1) and as a --schema file
MALFORMED_SCHEMAS = {
    "mention-types-a-number": _set("mention_types", 5),
    "match-policy-an-array": _set("match_policy", [1]),
    "hint-a-string": _set("hints", {"action": "a string"}),
    "role-a-string": _set("mention_roles", {"actor": "Actor"}),
    "tasks-a-string": _set("tasks", "MD"),
    "no-dataset-name": lambda record: record.pop("dataset_name"),
}
MALFORMED_DATASETS.update(
    (f"header-{case}", ("decon.jsonl", 1,
                        lambda record, change=change: change(record["schema"])))
    for case, change in MALFORMED_SCHEMAS.items()
)


@pytest.mark.parametrize("case", sorted(MALFORMED_DATASETS))
def test_malformed_dataset_field_is_data_error(case, capsys, tmp_path):
    name, line_no, change = MALFORMED_DATASETS[case]
    lines = (DATA / name).read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[line_no - 1])
    change(record)
    lines[line_no - 1] = json.dumps(record)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text("", encoding="utf-8")
    code = main(["evaluate", "--dataset", str(path), "--task", "MD",
                 "--predictions", str(predictions)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: data: line {line_no}: "), err


@pytest.mark.parametrize("case", sorted(MALFORMED_SCHEMAS))
def test_malformed_schema_file_is_data_error(case, capsys, tmp_path):
    header = json.loads((DATA / "decon.jsonl").read_text(encoding="utf-8")
                        .splitlines()[0])
    MALFORMED_SCHEMAS[case](header["schema"])
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(header["schema"]), encoding="utf-8")
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text("", encoding="utf-8")
    code = main(["evaluate", "--dataset", str(DATA / "decon.jsonl"),
                 "--schema", str(schema), "--task", "MD",
                 "--predictions", str(predictions)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: data: schema {schema}: "), err
