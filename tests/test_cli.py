"""End-to-end checks of the command line interface.

Happy paths record a response cache programmatically with a gold
echoing stub, then drive the CLI in replay mode against it.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import procex
from procex import cli, corpus, parser, pipeline, prompt
from procex.bpmn import parse_bpmn
from procex.cli import main
from procex.corpus import Constraint, Dataset, Document, Mention, Token, save_canonical
from procex.eval import MatchPolicy
from procex.llm import CachingClient, ChatRequest, HttpProvider, cache_entries, cache_key
from procex.pipeline import extract_document, run_cell, run_grid
from procex.prompt import PromptConfig, PromptError

from echo_provider import gold_echo

DATA = Path(__file__).parent.parent / "data"

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


def test_only_commands_that_draw_shots_take_a_seed(capsys, tmp_path):
    # every ablation variant is zero-shot, so a seed would reach no prompt
    code = main(["ablate", "--dataset", str(DATA / "pet.jsonl"), "--tasks", "MD",
                 "--seed", "1", "--mode", "replay", "--cache", str(tmp_path / "c"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: usage: ")
    assert not (tmp_path / "o").exists()
    for command in (["extract", "--task", "MD"], ["grid"]):
        args = cli.build_parser().parse_args(
            command + ["--dataset", "d", "--seed", "1"])
        assert args.seed == 1


BAD_LIST_AND_COUNT_FLAGS = {
    "grid-shots-not-a-number": ["grid", "--shots", "0,x"],
    "extract-shots-negative": ["extract", "--task", "MD", "--shots", "-2"],
    "grid-shots-empty-list": ["grid", "--shots", ","],
    "ablate-tasks-empty-list": ["ablate", "--tasks", ","],
    "ablate-tasks-repeated": ["ablate", "--tasks", "MD, MD"],
}


@pytest.mark.parametrize("argv", BAD_LIST_AND_COUNT_FLAGS.values(),
                         ids=BAD_LIST_AND_COUNT_FLAGS.keys())
def test_bad_list_or_count_flag_is_usage_error(argv, capsys, tmp_path):
    code = main(argv + ["--dataset", str(DATA / "pet.jsonl"), "--mode", "replay",
                        "--cache", str(tmp_path / "none"), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: usage: argument ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--tasks", "MD,MD", "repeated value 'MD' in 'MD,MD'"),
    ("--shots", "0,00", "repeated value 0 in '0,00'"),
])
def test_grid_rejects_a_repeated_task_or_shot_count(flag, value, message, capsys,
                                                    tmp_path):
    # every cell replays from the fixture: a repeat would rerun one cell
    argv = {"--tasks": "MD", "--shots": "0", flag: value}
    code = main(["grid", "--dataset", str(DATA / "pet.jsonl"), "--mode", "replay",
                 "--cache", str(DATA / "fixtures" / "replay_cache"),
                 "--model", "stub-fixture", "--out", str(tmp_path / "o"),
                 *(part for item in argv.items() for part in item)])
    assert code == 1
    assert capsys.readouterr().err.endswith(f"error: usage: argument {flag}: {message}\n")
    assert not (tmp_path / "o").exists()


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


def test_offline_process_loads_no_openssl_expat_thread_pool_or_datetime(tmp_path):
    # a replay grid and a BPMN compile digest with CPython's built-in SHA
    # modules; only parse_bpmn reads XML and only recording needs a pool
    probe = ("import sys, procex.cli, procex.bpmn\n"
             "grid = ['grid', '--dataset', sys.argv[1], '--tasks', 'MD', '--shots', '0',\n"
             "        '--mode', 'replay', '--cache', sys.argv[2], '--model', 'stub-fixture',\n"
             "        '--out', sys.argv[3]]\n"
             "assert procex.cli.main(grid) == 0\n"
             "assert procex.cli.main(['generate-bpmn', '--in', sys.argv[4],\n"
             "                        '--out', sys.argv[3] + '/claim.bpmn']) == 0\n"
             "print(' '.join(sorted(m for m in ('_hashlib', 'pyexpat', 'concurrent.futures',\n"
             "                                  'logging', 'datetime') if m in sys.modules)),\n"
             "      file=sys.stderr)")
    src = str(Path(procex.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe, str(DATA / "pet.jsonl"),
         str(DATA / "fixtures" / "replay_cache"), str(tmp_path),
         str(DATA / "fixtures" / "doc33.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stderr.strip() == ""


def test_every_public_name_has_a_use_outside_tests():
    # a name seen only where it is defined is reached by tests alone
    root = DATA.parent
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for pattern in ("src/procex/*.py", "tools/*.py", "perfbench/*.py",
                        "README.md")
        for path in sorted(root.glob(pattern))
    )
    unused = []
    for short in ("corpus", "prompt", "llm", "parser", "eval", "pipeline",
                  "bpmn", "cli"):
        module = importlib.import_module(f"procex.{short}")
        unused += [
            f"{short}.{name}" for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
            and len(re.findall(rf"\b{name}\b", text)) < 2
        ]
    assert unused == []


def test_every_keyword_only_parameter_is_passed_outside_tests():
    # a keyword-only setting that no caller names only ever takes its default
    root = DATA.parent
    passed = set()
    for pattern in ("src/procex/*.py", "tools/*.py", "perfbench/*.py"):
        for path in sorted(root.glob(pattern)):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    passed.add(node.arg)
                elif isinstance(node, ast.Dict):
                    passed.update(k.value for k in node.keys
                                  if isinstance(k, ast.Constant)
                                  and isinstance(k.value, str))
    allowed = {"session"}  # the transport fake of tests/test_llm.py
    unpassed = []
    for short in ("corpus", "prompt", "llm", "parser", "eval", "pipeline",
                  "bpmn", "cli"):
        module = importlib.import_module(f"procex.{short}")
        callables = []
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                callables.append((name, value))
            elif inspect.isclass(value):
                callables += [
                    (f"{name}.{attr}", getattr(member, "__func__", member))
                    for attr, member in vars(value).items()
                    if (attr == "__init__" or not attr.startswith("_"))
                    and inspect.isfunction(getattr(member, "__func__", member))
                ]
        for qualname, func in callables:
            unpassed += [
                f"{short}.{qualname}({param.name})"
                for param in inspect.signature(func).parameters.values()
                if param.kind is param.KEYWORD_ONLY
                and param.name not in passed | allowed
            ]
    assert unpassed == []


def test_every_import_is_used():
    # a name an import binds that no code reads is dead weight
    root = DATA.parent
    unused = []
    for pattern in ("src/procex/*.py", "tools/*.py", "tests/*.py"):
        for path in sorted(root.glob(pattern)):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [
                f"{path.relative_to(root)}:{node.lineno}: {alias.name}"
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names
                if (alias.asname or alias.name).split(".")[0] not in read
            ]
    assert unused == []


def test_no_handler_catches_everything():
    # a catch-all would pass a bug off as a data or provider failure
    root = DATA.parent
    broad = []
    for path in sorted(root.glob("src/procex/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(name, ast.Name) and name.id in
                                        ("Exception", "BaseException") for name in caught):
                broad.append(f"{path.relative_to(root)}:{node.lineno}")
    assert broad == []


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


def set_entry_token_count_to_true(path):
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["response"]["input_token_count"] = True
    path.write_text(json.dumps(entry), encoding="utf-8")


@pytest.mark.parametrize("damage", [truncate_entry, set_entry_text_to_a_number,
                                    set_entry_token_count_to_true])
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


def test_fixed_shots_flag_is_gone(capsys, tmp_path):
    code = main(["extract", "--dataset", str(DATA / "pet.jsonl"), "--task", "MD",
                 "--shots", "1", "--fixed-shots", "--mode", "replay",
                 "--cache", str(tmp_path / "c")])
    assert code == 1
    assert "error: usage: unrecognized arguments: --fixed-shots" in \
        capsys.readouterr().err


class _MalformedReply:
    status_code = 200

    @staticmethod
    def json():
        return {"choices": [{"message": {"content": "activity|x"}}],
                "usage": "12 tokens"}


class _MalformedProvider:
    @staticmethod
    def from_env():
        class Session:
            def post(self, url, **kwargs):
                return _MalformedReply()

        return HttpProvider("https://api.example/v1/chat", "k", session=Session())


def test_malformed_provider_reply_is_provider_error(capsys, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(cli, "HttpProvider", _MalformedProvider)
    code = main(["extract", "--dataset", str(DATA / "pet.jsonl"), "--task", "MD",
                 "--doc", "doc-1.1", "--mode", "record",
                 "--cache", str(tmp_path / "c")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: provider: malformed")
    assert not (tmp_path / "c").exists()


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


CACHE_COMMANDS = {
    "extract-record": ["extract", "--dataset", str(DATA / "pet.jsonl"), "--task",
                       "MD", "--doc", "doc-1.1", "--mode", "record"],
    "extract-replay": ["extract", "--dataset", str(DATA / "pet.jsonl"), "--task",
                       "MD", "--doc", "doc-1.1", "--mode", "replay"],
    "grid-replay": ["grid", "--dataset", str(DATA / "pet.jsonl"), "--tasks", "MD",
                    "--shots", "0", "--mode", "replay"],
    "cache-list": ["cache", "list"],
    "cache-purge": ["cache", "purge"],
}


@pytest.mark.parametrize("command", sorted(CACHE_COMMANDS))
def test_cache_path_naming_a_file_is_data_error_before_any_provider(
        command, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "HttpProvider", _NoProvider)
    monkeypatch.chdir(tmp_path)  # a command that got past the check writes here
    cache = tmp_path / "cache"
    cache.write_text("not a cache\n", encoding="utf-8")
    assert main(CACHE_COMMANDS[command] + ["--cache", str(cache)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: data: cache {cache} is not a directory"], err
    assert cache.read_text(encoding="utf-8") == "not a cache\n"


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


def test_extract_single_document_prints_its_predictions_record(pet, capsys, tmp_path):
    # a run's record without the f1 that needs the whole run
    cache = tmp_path / "cache"
    record_md_cache(pet, cache)
    assert main(["extract", "--dataset", str(DATA / "pet.jsonl"), "--task", "MD",
                 "--doc", "doc-1.1", "--mode", "replay", "--cache", str(cache)]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == [
        "document_id", "ignored_lines", "items", "parsing_errors", "task"]


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


def test_extract_dataset_failing_on_one_document_writes_nothing(pet, capsys, tmp_path):
    # every document is extracted and scored before the run's first write
    cache = tmp_path / "cache"
    record_md_cache(pet, cache)
    missing = cache_entries(cache)[0]
    missing.unlink()
    out = tmp_path / "o"
    code = main(["extract", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--mode", "replay",
                 "--cache", str(cache), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: provider: cache miss for request {missing.stem}"]
    assert not out.exists()


def test_evaluate_gold_predictions(pet, capsys, tmp_path):
    cache = tmp_path / "cache"
    client = CachingClient(cache, gold_echo(pet), mode="record")
    cell = run_cell(pet, PromptConfig(task="MD", schema=pet.schema),
                    client, out_root=tmp_path / "runs")
    predictions = tmp_path / "runs" / cell.manifest_id / "predictions.jsonl"
    code = main(["evaluate", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--predictions", str(predictions)])
    assert code == 0
    assert "MD: P=1.00 R=1.00 F1=1.00" in capsys.readouterr().out


def md_predictions_file(pet, tmp_path):
    client = CachingClient(tmp_path / "cache", gold_echo(pet), mode="record")
    cell = run_cell(pet, PromptConfig(task="MD", schema=pet.schema),
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
    cell = run_cell(pet, PromptConfig(task="MD", schema=pet.schema),
                    client, out_root=tmp_path / "runs")
    predictions = tmp_path / "runs" / cell.manifest_id / "predictions.jsonl"
    code = main(["evaluate", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "RE", "--predictions", str(predictions)])
    assert code == 2
    assert "expected 'RE'" in capsys.readouterr().err


def test_evaluate_rejects_items_of_another_tasks_kind(pet, capsys, tmp_path):
    predictions = md_predictions_file(pet, tmp_path)
    relation = {"kind": "relation", "type": "flow", "source": "a", "target": "b"}
    records = [json.loads(line) for line in predictions.read_text("utf-8").splitlines()]
    predictions.write_text("".join(json.dumps({**r, "items": [relation]}) + "\n"
                                   for r in records), encoding="utf-8")
    code = main(["evaluate", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--predictions", str(predictions)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: data: {predictions}:1: item of kind 'relation' in a record for task 'MD'"
    ]


def test_evaluate_names_the_record_of_an_unknown_document(capsys, tmp_path):
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text("".join(
        json.dumps({"document_id": doc_id, "task": "MD", "items": []}) + "\n"
        for doc_id in ("doc-1.1", "doc-9.9")), encoding="utf-8")
    code = main(["evaluate", "--dataset", str(DATA / "pet.jsonl"),
                 "--task", "MD", "--predictions", str(predictions)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: data: {predictions}:2: record for unknown document 'doc-9.9'"
    ]


@pytest.mark.parametrize("source,task", [("pet.jsonl", "ER"), ("pet.jsonl", "RE"),
                                         ("decon.jsonl", "CE")])
def test_evaluate_scores_a_written_run_like_the_run(source, task, capsys, tmp_path):
    dataset = cli._sniff_dataset(str(DATA / source))
    client = CachingClient(tmp_path / "cache", gold_echo(dataset), mode="record")
    cell = run_cell(dataset, PromptConfig(task=task, schema=dataset.schema),
                    client, out_root=tmp_path / "runs")
    predictions = tmp_path / "runs" / cell.manifest_id / "predictions.jsonl"
    code = main(["evaluate", "--dataset", str(DATA / source), "--task", task,
                 "--predictions", str(predictions)])
    assert code == 0, capsys.readouterr().err
    s = cell.scores
    assert capsys.readouterr().out == (
        f"{task}: P={s.precision:.2f} R={s.recall:.2f} F1={s.f1:.2f} "
        f"(documents: {len(dataset.documents)})\n"
    )


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


EMPTY_DATASET_ROWS = {
    "extract": "zero-shot 0.000 0.000 0.000 (errors: 0)",
    "grid": "zero-shot 0.000 0.000 0.000 (errors: 0)",
    "ablate": "Baseline +0.000 0.000 0",
}


@pytest.mark.parametrize("command", sorted(EMPTY_DATASET_ROWS))
def test_an_empty_dataset_gives_zero_score_rows(command, capsys, tmp_path):
    header = (DATA / "decon.jsonl").read_text(encoding="utf-8").splitlines()[0]
    empty = tmp_path / "empty.jsonl"
    empty.write_text(header + "\n", encoding="utf-8")
    out = tmp_path / "out"
    task_flag = "--task" if command == "extract" else "--tasks"
    code = main([command, "--dataset", str(empty), task_flag, "MD", "--mode", "replay",
                 "--cache", str(tmp_path / "none"), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
    assert EMPTY_DATASET_ROWS[command] in rows, rows
    if command == "ablate":
        assert (out / "ablation.json").is_file()
    else:
        runs = list(out.glob("*/scores.json"))
        assert runs and all(json.loads(path.read_text("utf-8"))["document_count"] == 0
                            for path in runs)
        # one line per record: no record, no byte
        assert all((path.parent / "predictions.jsonl").stat().st_size == 0
                   for path in runs)


def test_ablate_failure_category_follows_the_exception(pet, capsys, tmp_path,
                                                       monkeypatch):
    def failing_cell(dataset, config, *args, **kwargs):
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


@pytest.mark.parametrize("command", ["grid", "ablate"])
def test_a_bug_in_a_cell_propagates(command, pet, capsys, tmp_path, monkeypatch):
    # only data and provider errors become failed rows; anything else is a bug
    cache = tmp_path / "cache"
    record_md_cache(pet, cache)

    def broken_parse(*args, **kwargs):
        raise AttributeError("injected")

    monkeypatch.setattr(pipeline, "parse", broken_parse)
    argv = [command, "--dataset", str(DATA / "pet.jsonl"), "--tasks", "MD",
            "--mode", "replay", "--cache", str(cache), "--out", str(tmp_path / "o")]
    with pytest.raises(AttributeError, match="injected"):
        main(argv + (["--shots", "0"] if command == "grid" else []))
    assert capsys.readouterr().err == ""


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


def test_generate_bpmn_from_predictions_warns_and_merges_clusters(capsys, tmp_path):
    tokens = tuple(Token(word, i, i // 6) for i, word in enumerate(
        "The clerk registers the claim . the clerk archives the file .".split()))
    doc = Document(id="d1", raw_text=" ".join(t.text for t in tokens), tokens=tokens)
    source = tmp_path / "tiny.jsonl"
    save_canonical(Dataset(schema=corpus.load_schema("pet"), documents=(doc,)), source)
    items = [
        {"kind": "mention", "type": "Actor", "surface": "The clerk"},
        {"kind": "mention", "type": "Activity", "surface": "registers"},
        {"kind": "mention", "type": "Actor", "surface": "the clerk"},
        {"kind": "mention", "type": "Activity", "surface": "archives"},
        {"kind": "mention", "type": "Activity", "surface": "approves"},
        {"kind": "relation", "type": "flow", "source": "registers", "target": "the file"},
    ]
    cluster = {"kind": "cluster", "surfaces": ["The clerk", "the clerk"]}
    lanes = []
    for extra in ([], [cluster]):
        predictions = write_predictions(tmp_path, "d1", items + extra)
        out = tmp_path / "tiny.bpmn"
        assert main(["generate-bpmn", "--in", str(source), "--predictions",
                     str(predictions), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: mention 'approves' not groundable, dropped",
            "warning: relation 'flow' endpoint missing from predicted mentions, dropped",
        ]
        lanes.append([lane.label for lane in parse_bpmn(out.read_text("utf-8")).graph.lanes])
    # the two clerk mentions are one entity only when a cluster says so
    assert lanes == [["The clerk", "the clerk"], ["The clerk"]]


def test_generate_bpmn_from_predictions_warns_for_each_dropped_cluster(capsys, tmp_path):
    source = DATA / "fixtures" / "doc33.json"
    (doc,) = corpus.load_canonical(source).documents
    surface = {m.id: " ".join(doc.tokens[i].text for i in m.token_indices)
               for m in doc.mentions}
    mentions = [{"kind": "mention", "type": m.mention_type, "surface": surface[m.id]}
                for m in doc.mentions]
    officers = [surface[i] for i in ("m1", "m4", "m9", "m13")]
    clusters = [
        {"kind": "cluster", "surfaces": officers + ["zzz not in text"]},
        # every surface is taken by the first cluster
        {"kind": "cluster", "surfaces": officers},
        # "the form" grounds inside the predicted mention "the form is valid"
        {"kind": "cluster", "surfaces": ["the customer", "the form"]},
        # a cluster left with one member is a singleton
        {"kind": "cluster", "surfaces": ["a payment", "nowhere at all"]},
    ]
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text("".join(json.dumps(
        {"document_id": doc.id, "task": task, "items": items}) + "\n"
        for task, items in (("MD", mentions), ("ER", clusters))), encoding="utf-8")
    out = tmp_path / "x.bpmn"
    assert main(["generate-bpmn", "--in", str(source), "--predictions", str(predictions),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: cluster surface 'zzz not in text' not groundable, dropped",
        *(f"warning: cluster surface {s!r} not groundable, dropped" for s in officers),
        "warning: cluster surface 'nowhere at all' not groundable, dropped",
        "warning: cluster ['the customer', 'the form'] member missing from "
        "predicted mentions, dropped",
    ]
    lanes = parse_bpmn(out.read_text("utf-8")).graph.lanes
    assert len(lanes) == 2


def doc33_gold_predictions(tmp_path, mention_types=None, relation_types=None):
    """doc33 and a predictions file holding its gold mentions and relations,
    with the types of the ids named in the two maps replaced."""
    source = DATA / "fixtures" / "doc33.json"
    (doc,) = corpus.load_canonical(source).documents
    surface = {m.id: " ".join(doc.tokens[i].text for i in m.token_indices)
               for m in doc.mentions}
    items = [{"kind": "mention", "surface": surface[m.id],
              "type": (mention_types or {}).get(m.id, m.mention_type)}
             for m in doc.mentions]
    items += [{"kind": "relation", "source": surface[r.source_mention_id],
               "target": surface[r.target_mention_id],
               "type": (relation_types or {}).get(r.id, r.relation_type)}
              for r in doc.relations]
    return source, write_predictions(tmp_path, doc.id, items)


def test_generate_bpmn_warns_for_each_item_of_a_type_not_in_the_schema(capsys, tmp_path):
    cross_lane = "warning: condition label 'the form is valid' dropped on cross-lane flow"
    out = tmp_path / "x.bpmn"
    written = {}
    for name, retyped, warnings in (
        ("gold", {}, [cross_lane]),
        ("mention", {"mention_types": {"m0": "Foo"}},
         ["warning: mention 'a claim' has type 'Foo', not in the schema, dropped",
          cross_lane]),
        ("relation", {"relation_types": {"r0": "bogus"}},
         ["warning: relation 'bogus' not in the schema, dropped", cross_lane]),
    ):
        source, predictions = doc33_gold_predictions(tmp_path, **retyped)
        assert main(["generate-bpmn", "--in", str(source), "--predictions",
                     str(predictions), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == warnings, name
        written[name] = parse_bpmn(out.read_text("utf-8")).graph
    # the dropped mention was one data object; dropping a flow keeps every node
    assert len(written["mention"].nodes) == len(written["gold"].nodes) - 1
    assert written["relation"].nodes == written["gold"].nodes


def test_generate_bpmn_builds_one_window_index_per_document(capsys, tmp_path, monkeypatch):
    built = []

    class Counting(parser.WindowIndex):
        def __init__(self, doc):
            built.append(doc.id)
            super().__init__(doc)

    monkeypatch.setattr(parser, "WindowIndex", Counting)
    source, predictions = doc33_gold_predictions(tmp_path)
    with predictions.open("a", encoding="utf-8") as f:  # a second record, of clusters
        f.write(json.dumps({"document_id": "doc-3.3", "task": "ER", "items": [
            {"kind": "cluster", "surfaces": ["a claim", "the claim"]}]}) + "\n")
    assert main(["generate-bpmn", "--in", str(source), "--predictions", str(predictions),
                 "--out", str(tmp_path / "x.bpmn")]) == 0
    assert built == ["doc-3.3"]


def test_repeated_main_calls_share_no_parser_state(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    doc33 = DATA / "fixtures" / "doc33.json"
    (doc_id,) = [d.id for d in corpus.load_canonical(doc33).documents]
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text(
        json.dumps({"document_id": doc_id, "task": "MD", "items": []}) + "\n",
        encoding="utf-8",
    )
    runs = [["--out", str(tmp_path / "gold.bpmn")],
            ["--predictions", str(predictions), "--out", str(tmp_path / "pred.bpmn")],
            ["--out", str(tmp_path / "again.bpmn")]]
    for extra in runs:
        assert main(["generate-bpmn", "--in", str(doc33), *extra]) == 0
    gold = (tmp_path / "gold.bpmn").read_bytes()
    assert (tmp_path / "pred.bpmn").read_bytes() != gold
    assert (tmp_path / "again.bpmn").read_bytes() == gold


def write_predictions(tmp_path, doc_id, items=()):
    path = tmp_path / "pred.jsonl"
    path.write_text(json.dumps({"document_id": doc_id, "task": "RE", "items": list(items)})
                    + "\n", encoding="utf-8")
    return path


def test_generate_bpmn_skips_a_uses_relation_from_a_gateway(capsys, tmp_path):
    predictions = write_predictions(tmp_path, "doc-1.3", [
        {"kind": "mention", "type": "XOR Gateway", "surface": "If"},
        {"kind": "mention", "type": "Activity Data", "surface": "an order"},
        {"kind": "relation", "type": "uses", "source": "If", "target": "an order"},
    ])
    code = main(["generate-bpmn", "--in", str(DATA / "pet.jsonl"), "--doc", "doc-1.3",
                 "--predictions", str(predictions), "--out", str(tmp_path / "x.bpmn")])
    err = capsys.readouterr().err.splitlines()
    assert code == 0, err
    assert "warning: skipped link pr0: not an activity-to-data pair" in err
    assert parse_bpmn((tmp_path / "x.bpmn").read_text("utf-8")).graph.data_associations == ()


def test_generate_bpmn_label_that_xml_cannot_carry_is_data_error(capsys, tmp_path):
    # U+0001 may stand in JSON text, but XML 1.0 has no way to write it
    header, document = (DATA / "fixtures" / "doc33.json").read_text("utf-8").splitlines()
    record = json.loads(document)
    for token in record["tokens"]:
        if token["text"] == "officer":
            token["text"] = "off\u0001icer"
    source = tmp_path / "doc33.json"
    source.write_text(f"{header}\n{json.dumps(record)}\n", encoding="utf-8")
    out = tmp_path / "x.bpmn"
    code = main(["generate-bpmn", "--in", str(source), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: data: lane lane_8b1c8ce8: label holds U+0001, which XML 1.0 does not allow"
    ]
    assert not out.exists()


def test_generate_bpmn_without_a_record_for_the_document_is_data_error(capsys, tmp_path):
    predictions = write_predictions(tmp_path, "doc-1.3")
    out = tmp_path / "x.bpmn"
    code = main(["generate-bpmn", "--in", str(DATA / "pet.jsonl"), "--doc", "doc-1.1",
                 "--predictions", str(predictions), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: data: no predictions record for document 'doc-1.1'"
    ]
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "generate-bpmn"])
def test_blank_lines_before_the_first_record_keep_the_layout(command, capsys, tmp_path):
    source = {"evaluate": "decon.jsonl", "generate-bpmn": "fixtures/doc33.json"}[command]
    text = (DATA / source).read_text(encoding="utf-8")
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text("", encoding="utf-8")
    outputs = []
    for name, content in (("plain", text), ("padded", "\n  \n" + text)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text(content, encoding="utf-8")
        out = tmp_path / f"{name}.bpmn"
        argv = {
            "evaluate": ["evaluate", "--dataset", str(path), "--task", "CE",
                         "--predictions", str(predictions)],
            "generate-bpmn": ["generate-bpmn", "--in", str(path), "--out", str(out)],
        }[command]
        assert main(argv) == 0, capsys.readouterr().err
        stdout = capsys.readouterr().out
        outputs.append(out.read_bytes() if command == "generate-bpmn" else stdout)
    assert outputs[0] == outputs[1]


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


def test_cache_commands_touch_only_cache_entries(pet, capsys, tmp_path):
    cache = tmp_path / "cache"
    entry = record_one_entry(pet, cache)
    others = [cache / "settings.json", cache / "schema.json",
              cache / (entry.stem + "0.json"),
              cache / (entry.stem[:-1] + ".json")]
    for path in others:
        path.write_text("{}", encoding="utf-8")

    assert main(["cache", "list", "--cache", str(cache)]) == 0
    out = capsys.readouterr().out
    assert out == f"{entry.stem}  {entry.stat().st_size}\n1 cache entry\n"

    assert main(["cache", "purge", "--cache", str(cache)]) == 0
    assert capsys.readouterr().out == "removed 1 cache entry\n"
    assert not entry.exists()
    assert all(path.is_file() for path in others)


@pytest.mark.parametrize("seconds", ["nan", "inf", "-1"])
def test_purge_rejects_non_finite_or_negative_age(seconds, pet, capsys, tmp_path):
    cache = tmp_path / "cache"
    entry = record_one_entry(pet, cache)
    assert main(["cache", "purge", "--cache", str(cache),
                 "--older-than", seconds]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: usage: argument ")
    assert entry.is_file()


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
    # JSON booleans are not integers, though Python's bool subclasses int
    "pet-relation-source-a-boolean": (
        "pet.jsonl", 1,
        lambda record: record["relations"][0].__setitem__("source-mention-id", True),
    ),
    "pet-sentence-id-a-boolean": (
        "pet.jsonl", 1, lambda record: record["sentence-IDs"].__setitem__(0, False),
    ),
    "canonical-token-index-a-boolean": (
        "decon.jsonl", 2, lambda record: record["tokens"][1].__setitem__("index", True),
    ),
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


# Input files holding a byte that is not UTF-8: each case writes its file
# under a tmp path and returns the command line and the error's prefix

def _with_bad_byte(path, text=""):
    path.write_bytes(text.encode("utf-8") + b"\xff\n")
    return str(path)


def _first_lines(name, count):
    lines = (DATA / name).read_text(encoding="utf-8").splitlines(keepends=True)
    return "".join(lines[:count])


def _no_predictions(tmp):
    path = tmp / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    return str(path)


def _bad_cache_entry(pet, tmp):
    entry = record_one_entry(pet, tmp / "c")
    text = entry.read_text(encoding="utf-8")
    _with_bad_byte(entry, text[:100])
    return (["extract", "--dataset", str(DATA / "pet.jsonl"), "--task", "MD",
             "--doc", "doc-1.1", "--mode", "replay", "--cache", str(tmp / "c")],
            str(entry))


NOT_UTF8 = {
    # the bad byte opens line 3, after two long lines
    "dataset": lambda pet, tmp: (
        ["evaluate", "--task", "MD", "--predictions", _no_predictions(tmp),
         "--dataset", _with_bad_byte(tmp / "d.jsonl", _first_lines("decon.jsonl", 2))],
        "line 3"),
    "predictions": lambda pet, tmp: (
        ["evaluate", "--dataset", str(DATA / "pet.jsonl"), "--task", "MD",
         "--predictions", _with_bad_byte(tmp / "p.jsonl", '{"document_id": "doc-1.1", '
                                         '"task": "MD", "items": []}\n\n{"document_id": "')],
        f"{tmp / 'p.jsonl'}:3"),
    "config": lambda pet, tmp: (
        ["cache", "list", "--cache", str(tmp / "c"),
         "--config", _with_bad_byte(tmp / "conf.json", '{"cache": "')],
        str(tmp / "conf.json")),
    "cache entry": _bad_cache_entry,
    "schema": lambda pet, tmp: (
        ["evaluate", "--dataset", str(DATA / "decon.jsonl"), "--task", "MD",
         "--schema", _with_bad_byte(tmp / "s.json", '{"dataset_name": "'),
         "--predictions", _no_predictions(tmp)],
        f"schema {tmp / 's.json'}"),
}


@pytest.mark.parametrize("kind", sorted(NOT_UTF8))
def test_input_that_is_not_utf8_is_data_error_naming_where(kind, pet, capsys, tmp_path):
    argv, prefix = NOT_UTF8[kind](pet, tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: data: {prefix}: not UTF-8 text (invalid start byte)"
    ]


def _decon_with_second_line(tmp, edit):
    """decon's header and first document, the document edited as JSON text."""
    header, document = _first_lines("decon.jsonl", 2).splitlines()
    path = tmp / "d.jsonl"
    path.write_text(f"{header}\n{edit(document)}\n", encoding="utf-8")
    return str(path)


def _with_lone_surrogate(document):
    record = json.loads(document)
    record["text"] += "\ud800"
    return json.dumps(record)


def _config_with_nul_out(tmp):
    config = tmp / "conf.json"
    config.write_text(json.dumps({"mode": "replay", "out": "a\u0000b"}), encoding="utf-8")
    return str(config)


# input that decodes as JSON, yet would fail far from its file if let through
DECODED_BUT_BAD = {
    "integer of 5,000 digits": lambda tmp: (
        ["evaluate", "--task", "MD", "--predictions", _no_predictions(tmp),
         "--dataset", _decon_with_second_line(
             tmp, lambda doc: doc.replace('"index": 0', '"index": ' + "7" * 5000, 1))],
        "line 2: JSON integer too long ("),
    "lone surrogate escape": lambda tmp: (
        ["extract", "--task", "MD", "--mode", "replay", "--cache", str(tmp / "c"),
         "--out", str(tmp / "o"), "--dataset",
         _decon_with_second_line(tmp, _with_lone_surrogate)],
        "line 2: JSON string holds a lone surrogate '\\ud800'"),
    "NUL in a config path": lambda tmp: (
        ["extract", "--dataset", str(DATA / "decon.jsonl"), "--task", "MD",
         "--cache", str(tmp / "c"), "--config", _config_with_nul_out(tmp)],
        f"{tmp / 'conf.json'}: config field 'out' holds a NUL byte"),
}


@pytest.mark.parametrize("case", sorted(DECODED_BUT_BAD))
def test_decoded_but_bad_input_is_data_error_naming_its_file(case, capsys, tmp_path):
    argv, prefix = DECODED_BUT_BAD[case](tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: data: {prefix}"), err
    assert not (tmp_path / "o").exists()


def test_model_id_that_is_not_utf8_is_data_error(capsys, tmp_path, monkeypatch):
    # argv and the environment bring a byte that is not UTF-8 as a lone surrogate
    monkeypatch.setenv("PROCEX_MODEL", "m\udcff")
    argv = ["grid", "--dataset", str(DATA / "pet.jsonl"), "--tasks", "MD",
            "--shots", "0", "--mode", "replay", "--cache", str(tmp_path / "c")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: data: model id 'm\\udcff' is not UTF-8 text"]


def test_the_first_fault_in_file_order_is_reported(capsys, tmp_path):
    # both faults lie in one decode chunk: line 1 lacks its document_id,
    # and line 4 holds a byte that is not UTF-8
    predictions = tmp_path / "p.jsonl"
    predictions.write_bytes(b'{}\n{"document_id": "doc-1.1", "items": []}\n\n'
                            b'{"document_id": "\xfe"}\n')
    code = main(["evaluate", "--dataset", str(DATA / "pet.jsonl"), "--task", "MD",
                 "--predictions", str(predictions)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: data: {predictions}:1: record has no field 'document_id'"]


# ---------------------------------------------------------------------------
# checks made when a dataset or schema loads

def _pet_with_id(path, doc_id):
    lines = (DATA / "pet.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["document name"] = doc_id
    path.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n",
                    encoding="utf-8")


def _canonical_with_id(path, doc_id):
    lines = (DATA / "decon.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["id"] = doc_id
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("layout", ["pet", "canonical"])
@pytest.mark.parametrize("doc_id", ["../../escaped", "a/b", "..\\escaped", "nul\0id"])
def test_document_id_naming_a_path_is_data_error_before_any_provider(
        layout, doc_id, capsys, tmp_path, monkeypatch):
    # run directories hold prompts/<id>.txt and responses/<id>.txt
    monkeypatch.setattr(cli, "HttpProvider", _NoProvider)
    dataset = tmp_path / "in" / "data.jsonl"
    dataset.parent.mkdir()
    (_pet_with_id if layout == "pet" else _canonical_with_id)(dataset, doc_id)
    out = tmp_path / "a" / "b" / "runs"
    code = main(["extract", "--dataset", str(dataset), "--task", "MD",
                 "--mode", "record", "--cache", str(tmp_path / "c"),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: data: document id {doc_id!r} contains"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


BAD_MATCH_POLICIES = {
    "span-mode-exact": {"span_mode": "exact"},
    "constraint-normalization-lemma": {"constraint_normalization": "lemma"},
}


@pytest.mark.parametrize("source", ["header", "schema-file"])
@pytest.mark.parametrize("case", sorted(BAD_MATCH_POLICIES))
def test_unknown_match_policy_value_is_data_error_at_load(source, case, capsys,
                                                         tmp_path):
    lines = (DATA / "decon.jsonl").read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["schema"]["match_policy"].update(BAD_MATCH_POLICIES[case])
    argv = ["extract", "--task", "MD", "--mode", "replay",
            "--cache", str(tmp_path / "empty-cache"), "--out", str(tmp_path / "o")]
    if source == "header":
        dataset = tmp_path / "decon.jsonl"
        dataset.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n",
                           encoding="utf-8")
        argv += ["--dataset", str(dataset)]
    else:
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(header["schema"]), encoding="utf-8")
        argv += ["--dataset", str(DATA / "decon.jsonl"), "--schema", str(schema)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    (name, value), = BAD_MATCH_POLICIES[case].items()
    assert len(err) == 1, err
    assert err[0].startswith("error: data: "), err
    assert f"unknown match_policy {name} {value!r}" in err[0], err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["evaluate", "generate-bpmn"])
def test_config_flag_only_where_it_has_an_effect(command, capsys, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"out": "elsewhere", "cache": "zz"}), encoding="utf-8")
    predictions = tmp_path / "pred.jsonl"
    predictions.write_text("", encoding="utf-8")
    argv = {
        "evaluate": ["evaluate", "--dataset", str(DATA / "pet.jsonl"), "--task", "MD",
                     "--predictions", str(predictions)],
        "generate-bpmn": ["generate-bpmn", "--in", str(DATA / "fixtures" / "doc33.json"),
                          "--out", str(tmp_path / "claim.bpmn")],
    }[command]
    assert main(argv + ["--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: usage: unrecognized arguments: --config {config}", err
    assert not (tmp_path / "claim.bpmn").exists()
    # the commands that resolve a setting from the file keep the flag
    for kept in (["extract", "--task", "MD", "--dataset", "d"], ["grid", "--dataset", "d"],
                 ["ablate", "--dataset", "d"], ["cache", "list"]):
        assert cli.build_parser().parse_args(kept + ["--config", "x"]).config == "x"


# ---------------------------------------------------------------------------
# input guards: each case runs on the PET schema and a tmp path; its outcome
# is the value returned or "<exception>: <message>", and it prints nothing
# unless a third entry gives the output; {tmp} stands for the tmp path

DOC = Document("d", "a b", (Token("a", 0, 0), Token("b", 1, 0)))
REQUEST = ChatRequest("m", "p")


def _pet_file(tmp, **fields):
    """A one-document PET file, with fields replacing the defaults."""
    record = {"document name": "d", "tokens": ["a", "b"], "sentence-IDs": [0, 0],
              "ner-tags": ["B-Actor", "O"], **fields}
    path = tmp / "pet.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


def _decon_lines(tmp, edit):
    """A copy of decon's header and first document, the list of lines edited."""
    path = tmp / "d.jsonl"
    lines = _first_lines("decon.jsonl", 2).splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return path


def _replay_client(tmp, **response):
    """A replay client whose cache holds REQUEST's entry, with response
    fields replacing the defaults."""
    entry = {"response": {"text": "", "input_token_count": 0, "output_token_count": 0,
                          "provider_name": "x", **response}}
    (tmp / f"{cache_key(REQUEST)}.json").write_text(json.dumps(entry), encoding="utf-8")
    return CachingClient(tmp, mode="replay")


INPUT_GUARDS = {
    "parse unknown task": (
        lambda schema, tmp: parser.parse("activity|a", "XX", schema),
        "ValueError: unknown task 'XX'"),
    "score unknown task": (
        lambda schema, tmp: pipeline.score_document("XX", parser.parse("", "MD", schema),
                                                    DOC, MatchPolicy.from_schema(schema)),
        "ValueError: unknown task 'XX'"),
    "render_gold unknown task": (
        lambda schema, tmp: prompt.render_gold(DOC, "XX"),
        "PromptError: unknown task 'XX'"),
    "config unknown task": (
        lambda schema, tmp: PromptConfig("XX", schema).validate(),
        "PromptError: unknown task 'XX'"),
    "config unknown brevity": (
        lambda schema, tmp: PromptConfig("MD", schema, brevity="terse").validate(),
        "PromptError: unknown brevity 'terse'"),
    "config negative shot count": (
        lambda schema, tmp: PromptConfig("MD", schema, shot_count=-1).validate(),
        "PromptError: shot_count must be >= 0"),
    "config non-component": (
        lambda schema, tmp: PromptConfig(
            "MD", schema, enabled=prompt.ALL_COMPONENTS | {"Persona"}).validate(),
        "PromptError: unknown components: {'Persona'}"),
    "very short ablation base": (
        lambda schema, tmp: prompt.ablation_variants(
            PromptConfig("MD", schema, brevity="very_short")),
        "PromptError: ablation base must use full brevity"),
    "cache list on a missing directory": (
        lambda schema, tmp: main(["cache", "list", "--cache", str(tmp / "absent")]),
        0, "cache {tmp}/absent is empty\n"),
    "schema duplicate type": (
        lambda schema, tmp: dataclasses.replace(
            schema, mention_types=schema.mention_types + ("Actor",)).validate(),
        ["duplicate mention type 'Actor'"]),
    "schema unknown task": (
        lambda schema, tmp: dataclasses.replace(schema, tasks=("MD", "XX")).validate(),
        ["unknown task 'XX'"]),
    "no such schema": (
        lambda schema, tmp: corpus.load_schema("absent"),
        "LoadError: no bundled schema or file named 'absent'"),
    "duplicate constraint id": (
        lambda schema, tmp: corpus.validate(dataclasses.replace(DOC, constraints=(
            Constraint("c1", "Precedence", False, "a", "b"),
            Constraint("c1", "Init", False, "a")))),
        ["duplicate constraint id c1"]),
    "empty constraint action": (
        lambda schema, tmp: corpus.validate(dataclasses.replace(DOC, constraints=(
            Constraint("c1", "Precedence", False, "a", " "),))),
        ["constraint c1: empty second action"]),
    "duplicate document id": (
        lambda schema, tmp: corpus.validate_dataset(Dataset(schema, (DOC, DOC))),
        ["duplicate document id d"]),
    "pet tag type not in schema": (
        lambda schema, tmp: corpus.load_pet(_pet_file(tmp, **{"ner-tags": ["B-Robot", "O"]})),
        "LoadError: line 1: BIO tag type 'Robot' not in schema"),
    "pet relation type not in schema": (
        lambda schema, tmp: corpus.load_pet(_pet_file(tmp, relations=[
            {"relation-type": "owns", "source-mention-id": 0, "target-mention-id": 0}])),
        "LoadError: line 1: relation type 'owns' not in schema"),
    "cache entry negative token count": (
        lambda schema, tmp: _replay_client(tmp, output_token_count=-1).complete(REQUEST),
        f"LoadError: {{tmp}}/{cache_key(REQUEST)}.json: token counts must be >= 0"),
    "canonical header of another format version": (
        lambda schema, tmp: corpus.load_canonical(_decon_lines(tmp, lambda lines: [
            lines[0].replace('"format_version": 1', '"format_version": 7', 1), lines[1]])),
        "LoadError: line 1: schema header has unsupported format_version 7"),
    "canonical header without a format version": (
        lambda schema, tmp: corpus.load_canonical(_decon_lines(tmp, lambda lines: [
            lines[0].replace('"format_version": 1, ', '', 1), lines[1]])),
        "LoadError: line 1: schema header has unsupported format_version None"),
    "canonical second schema header": (
        lambda schema, tmp: corpus.load_canonical(_decon_lines(tmp, lambda lines: lines + lines[:1])),
        "LoadError: line 3: second schema header (the first is line 1)"),
    "predictions unknown item kind": (
        lambda schema, tmp: parser.item_from_record({"kind": "gateway"}),
        "LoadError: item has unknown kind 'gateway'"),
    "older-than not a number": (
        lambda schema, tmp: cli._seconds("abc"),
        "ArgumentTypeError: not a number: 'abc'"),
    "match policy unknown value": (
        lambda schema, tmp: MatchPolicy(span_mode="exact"),
        "ValueError: unknown span_mode 'exact'"),
    # a copy is equal and hashes alike
    "schema hash": (
        lambda schema, tmp: (hash(schema) == hash(dataclasses.replace(schema)),
                             schema == dataclasses.replace(schema)),
        (True, True)),
}


@pytest.mark.parametrize("case", sorted(INPUT_GUARDS))
def test_input_guards(case, capsys, tmp_path):
    run, expected, *printed = INPUT_GUARDS[case]
    try:
        outcome = run(corpus.load_schema("pet"), tmp_path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        outcome = f"{type(exc).__name__}: {exc}"
    if isinstance(expected, str):
        expected = expected.replace("{tmp}", str(tmp_path))
    assert outcome == expected
    assert capsys.readouterr().out == "".join(printed).format(tmp=tmp_path)
