"""Property: every file the CLI reads, damaged in one place, still ends in
a result or in one error line with a documented exit code.

Each file kind starts from a valid record. One field (or one of the
first elements of an array) is then set to a JSON value of another
type or to null, or deleted, or the line is truncated.
"""

import contextlib
import copy
import functools
import io
import json
import operator
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from procex import corpus
from procex.cli import main
from procex.pipeline import DEFAULT_MODEL_ID

from test_cli import DATA, record_one_entry

WRONG_VALUES = st.sampled_from([None, 5, 2.5, True, "x", [], [5], {}, {"x": 5}])


def field_paths(value, prefix=()):
    """Key paths to every object field and the first array elements in value."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = list(enumerate(value))[:4]
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


@st.composite
def damaged(draw, record):
    """record as one line of JSON, damaged in one place."""
    how = draw(st.sampled_from(["set", "delete", "truncate"]))
    if how == "truncate":
        text = json.dumps(record)
        return text[: draw(st.integers(0, len(text) - 1))]
    record = copy.deepcopy(record)
    *parents, last = draw(st.sampled_from(list(field_paths(record))))
    holder = functools.reduce(operator.getitem, parents, record)
    if how == "set":
        holder[last] = draw(WRONG_VALUES)
    else:
        del holder[last]
    return json.dumps(record)


def first_lines(name, count):
    return (DATA / name).read_text(encoding="utf-8").splitlines()[:count]


@pytest.fixture(scope="module", autouse=True)
def no_live_provider():
    # record mode must never find an endpoint to call
    with pytest.MonkeyPatch.context() as patch:
        for name in ("PROCEX_MODEL", "PROCEX_MODE", "PROCEX_CACHE", "PROCEX_OUT",
                     "PROCEX_ENDPOINT", "PROCEX_API_KEY"):
            patch.delenv(name, raising=False)
        yield


@pytest.fixture(scope="module")
def cache_entry(tmp_path_factory):
    """(file name, record) of the recorded MD zero-shot entry of doc-1.1."""
    pet = corpus.load_pet(DATA / "pet.jsonl")
    path = record_one_entry(pet, tmp_path_factory.mktemp("cache"))
    return path.name, json.loads(path.read_text(encoding="utf-8"))


def evaluate_md(directory, dataset_lines):
    dataset = directory / "dataset.jsonl"
    dataset.write_text("\n".join(dataset_lines) + "\n", encoding="utf-8")
    predictions = directory / "pred.jsonl"
    if not predictions.exists():
        predictions.write_text("", encoding="utf-8")
    return ["evaluate", "--dataset", str(dataset), "--task", "MD",
            "--predictions", str(predictions)]


def canonical_document(directory, damage, entry):
    header, document = first_lines("decon.jsonl", 2)
    return evaluate_md(directory, [header, damage(json.loads(document))])


def pet_document(directory, damage, entry):
    (document,) = first_lines("pet.jsonl", 1)
    return evaluate_md(directory, [damage(json.loads(document))])


def schema_header(directory, damage, entry):
    header, *documents = first_lines("decon.jsonl", 3)
    return evaluate_md(directory, [damage(json.loads(header)), *documents])


def predictions_record(directory, damage, entry):
    record = {"document_id": "doc-1.1", "task": "MD", "items": [
        {"kind": "mention", "type": "Actor", "surface": "A sales clerk"},
        {"kind": "cluster", "surfaces": ["an order", "it"]},
        {"kind": "relation", "type": "flow", "source": "receives",
         "target": "stores"},
        {"kind": "constraint", "type": "response", "negated": False,
         "actions": ["receive order", "store order"]},
    ]}
    (directory / "pred.jsonl").write_text(damage(record) + "\n", encoding="utf-8")
    return evaluate_md(directory, first_lines("pet.jsonl", 1))


def extract_doc_1_1(*flags):
    return ["extract", "--dataset", str(DATA / "pet.jsonl"), "--task", "MD",
            "--doc", "doc-1.1", *flags]


def cache_entry_file(directory, damage, entry):
    name, record = entry
    (directory / name).write_text(damage(record), encoding="utf-8")
    return extract_doc_1_1("--mode", "replay", "--cache", str(directory))


def config_file(directory, damage, entry):
    name, record = entry
    cache = directory / "cache"
    cache.mkdir()
    (cache / name).write_text(json.dumps(record), encoding="utf-8")
    config = directory / "config.json"
    config.write_text(damage({"model": DEFAULT_MODEL_ID, "mode": "replay",
                              "cache": str(cache), "out": str(directory / "runs")}),
                      encoding="utf-8")
    return extract_doc_1_1("--config", str(config))


FILE_KINDS = {
    "canonical-document": canonical_document,
    "pet-document": pet_document,
    "schema-header": schema_header,
    "predictions-record": predictions_record,
    "cache-entry": cache_entry_file,
    "config": config_file,
}


def assert_result_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), (code, lines)
    if code:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


@pytest.mark.parametrize("kind", sorted(FILE_KINDS))
def test_undamaged_files_succeed(kind, cache_entry, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(FILE_KINDS[kind](tmp_path, json.dumps, cache_entry)) == 0


@pytest.mark.parametrize("kind", sorted(FILE_KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_file_ends_in_result_or_one_error_line(kind, cache_entry, data):
    def damage(record):
        return data.draw(damaged(record))

    with tempfile.TemporaryDirectory() as directory:
        assert_result_or_one_error_line(
            FILE_KINDS[kind](Path(directory), damage, cache_entry))
