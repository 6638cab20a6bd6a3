"""Prompt assembly tests."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from procex import corpus, pipeline, prompt
from procex.parser import ITEM_KINDS, parse
from procex.prompt import (
    ALL_COMPONENTS,
    K,
    PromptConfig,
    PromptError,
    ablation_variants,
    assemble,
    first_sentence,
    load_template,
    render_gold,
    select_shots,
)

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def pet():
    return corpus.load_pet(DATA / "pet.jsonl")


@pytest.fixture(scope="module")
def decon():
    return corpus.load_canonical(DATA / "decon.jsonl")


def full_config(schema, task="MD", **kw):
    return PromptConfig(task=task, schema=schema, **kw)


def test_template_has_all_sections():
    sections = load_template()
    assert set(sections) == ALL_COMPONENTS
    assert all(sections[k] for k in sections)


def test_template_is_read_once_and_shared_read_only():
    sections = load_template()
    assert load_template() is sections
    with pytest.raises(TypeError):
        sections[K.PERSONA] = "changed"


def test_first_sentence():
    assert first_sentence("One. Two.") == "One."
    assert first_sentence("No terminator here") == "No terminator here"
    assert first_sentence("What? Yes.") == "What?"


def test_assemble_all_components_no_shots(pet):
    doc = pet.document("doc-1.1")
    rp = assemble(full_config(pet.schema), doc)
    assert set(rp.component_spans) == ALL_COMPONENTS - {K.FEW_SHOT}
    assert rp.text.endswith(f"Input: {doc.raw_text}\nOutput:\n")
    again = assemble(full_config(pet.schema), doc)
    assert again.text == rp.text
    assert again.config_fingerprint == rp.config_fingerprint


def test_assemble_format_spec_only(pet):
    doc = pet.document("doc-1.1")
    cfg = full_config(pet.schema, enabled=frozenset({K.FORMAT_SPEC}))
    rp = assemble(cfg, doc)
    assert set(rp.component_spans) == {K.FORMAT_SPEC}
    off, size = rp.component_spans[K.FORMAT_SPEC]
    assert off == 0
    body = rp.text.encode("utf-8")[:size].decode("utf-8")
    assert body.startswith("Answer with one line per mention")
    assert rp.text == body + f"Input: {doc.raw_text}\nOutput:\n"


def test_spans_are_contiguous_and_cover_components(pet):
    doc = pet.document("doc-2.4")
    rp = assemble(full_config(pet.schema, task="RE"), doc, shot_pool=pet.documents)
    raw = rp.text.encode("utf-8")
    spans = sorted(rp.component_spans.values())
    pos = 0
    for off, size in spans:
        assert off == pos
        pos = off + size
    assert raw[pos:].decode("utf-8").startswith("Input: ")


def splice_out(text: str, span) -> str:
    raw = text.encode("utf-8")
    off, size = span
    return (raw[:off] + raw[off + size:]).decode("utf-8")


def test_component_isolation(pet):
    doc = pet.document("doc-1.2")
    base_cfg = full_config(pet.schema, shot_count=1, shot_seed=5)
    base = assemble(base_cfg, doc, shot_pool=pet.documents)
    for kind in ALL_COMPONENTS - {K.FORMAT_SPEC}:
        changes = {"enabled": base_cfg.enabled - {kind}}
        if kind is K.FEW_SHOT:
            changes["shot_count"] = 0
        variant = assemble(base_cfg.replace(**changes), doc, shot_pool=pet.documents)
        assert variant.text == splice_out(base.text, base.component_spans[kind])


def test_very_short_touches_only_definitions_and_hints(pet):
    doc = pet.document("doc-1.1")
    base_cfg = full_config(pet.schema)
    base = assemble(base_cfg, doc)
    short = assemble(base_cfg.replace(brevity="very_short"), doc)
    changed = {K.META_LANGUAGE, K.DISAMBIGUATION}
    for kind in ALL_COMPONENTS - changed - {K.FEW_SHOT}:
        off, size = base.component_spans[kind]
        off2, size2 = short.component_spans[kind]
        assert base.text.encode("utf-8")[off:off + size] == \
            short.text.encode("utf-8")[off2:off2 + size2]
    # a later sentence of the Activity definition is gone
    definition = pet.schema.definitions["Activity"]
    assert first_sentence(definition) != definition
    assert definition.split(". ")[1].split(".")[0] not in short.text
    assert first_sentence(definition) in short.text


def test_shot_count_requires_few_shot_component(pet):
    cfg = full_config(pet.schema, enabled=frozenset({K.FORMAT_SPEC}), shot_count=1)
    with pytest.raises(PromptError):
        cfg.validate()
    with pytest.raises(PromptError):
        full_config(pet.schema, enabled=frozenset({K.PERSONA})).validate()


def test_prompt_never_contains_target_as_shot(pet):
    doc = pet.document("doc-3.3")
    cfg = full_config(pet.schema, shot_count=3, shot_seed=7)
    rp = assemble(cfg, doc, shot_pool=pet.documents)
    assert doc.id not in rp.shot_ids
    assert len(rp.shot_ids) == 3
    assert K.FEW_SHOT in rp.component_spans


def test_fingerprint_tracks_shots_and_config(pet):
    doc = pet.document("doc-1.1")
    a = assemble(full_config(pet.schema, shot_count=1, shot_seed=1), doc, pet.documents)
    b = assemble(full_config(pet.schema, shot_count=1, shot_seed=2), doc, pet.documents)
    c = assemble(full_config(pet.schema, task="RE"), doc)
    assert len({a.config_fingerprint, b.config_fingerprint, c.config_fingerprint}) == 3


def test_select_shots_deterministic(pet):
    first = select_shots(list(pet.documents), 3, "doc-3.3", 7)
    second = select_shots(list(pet.documents), 3, "doc-3.3", 7)
    assert [s.id for s in first] == [s.id for s in second]
    assert "doc-3.3" not in {s.id for s in first}
    assert len(first) == 3


def test_select_shots_zero_and_full(decon):
    assert select_shots(list(decon.documents), 0, "decon-01", 0) == []
    everything = select_shots(list(decon.documents), 17, "absent", 3)
    assert sorted(s.id for s in everything) == \
        sorted(d.id for d in decon.documents)


def test_select_shots_overflow_names_both_numbers(decon):
    with pytest.raises(PromptError) as err:
        select_shots(list(decon.documents), 20, "decon-01", 0)
    assert "20" in str(err.value) and "16" in str(err.value)


def test_render_gold_md_hand_oracle(pet):
    doc = pet.document("doc-1.1")
    assert render_gold(doc, "MD") == [
        "actor|A sales clerk",
        "activity|receives",
        "activity data|an order",
        "activity|stores",
        "activity data|it",
        "actor|he",
        "activity|forwards",
        "activity data|the record",
        "actor|the buyer",
    ]


def test_render_gold_er_hand_oracle(pet):
    doc = pet.document("doc-1.1")
    assert render_gold(doc, "ER") == [
        "entity|A sales clerk|he",
        "entity|receives",
        "entity|an order|it|the record",
        "entity|stores",
        "entity|forwards",
        "entity|the buyer",
    ]


def test_render_gold_re_hand_oracle(pet):
    doc = pet.document("doc-1.1")
    lines = render_gold(doc, "RE")
    assert lines[0] == "flow|receives|stores"
    assert "actor performer|receives|A sales clerk" in lines
    assert "actor recipient|forwards|the buyer" in lines
    assert "uses|stores|it" in lines
    assert len(lines) == len(doc.relations)


def test_render_gold_ce_hand_oracle(decon):
    assert render_gold(decon.document("decon-02"), "CE") == [
        "precedence||receive payment|ship order"
    ]
    assert render_gold(decon.document("decon-04"), "CE") == [
        "response|not|issue refund|charge card"
    ]
    assert render_gold(decon.document("decon-01"), "CE") == [
        "init||register claim",
        "succession||register claim|examine file",
        "end||archive result",
    ]


def test_render_gold_empty_task(pet):
    doc = pet.document("doc-1.1")
    assert render_gold(doc, "CE") == []


def test_ablation_variants_labels_and_deltas(pet):
    base = full_config(pet.schema)
    rows = ablation_variants(base)
    assert [label for label, _ in rows] == [
        "Baseline",
        "No Format Examples",
        "No Context Manager",
        "No Persona",
        "No Meta Language",
        "No Chain of Thought",
        "No Disambiguation",
        "No Reflection",
        "No Fact Check List",
        "Very Short Prompt",
    ]
    for label, cfg in rows:
        assert K.FORMAT_SPEC in cfg.enabled
        removed = base.enabled - cfg.enabled
        if label == "Baseline":
            assert cfg == base
        elif label == "Very Short Prompt":
            assert cfg.brevity == "very_short" and not removed
        else:
            assert cfg.brevity == "full" and len(removed) == 1


def test_ablation_base_must_be_complete(pet):
    partial = full_config(pet.schema, enabled=ALL_COMPONENTS - {K.PERSONA})
    with pytest.raises(PromptError):
        ablation_variants(partial)


@given(
    extra=st.sets(
        st.sampled_from(sorted(ALL_COMPONENTS - {K.FORMAT_SPEC}, key=lambda k: k.value))
    )
)
def test_span_concatenation_rebuilds_prompt(extra):
    schema = corpus.load_schema("pet")
    doc = corpus.load_canonical(DATA / "fixtures" / "doc33.json").document("doc-3.3")
    cfg = PromptConfig(task="MD", schema=schema, enabled=frozenset(extra | {K.FORMAT_SPEC}))
    rp = assemble(cfg, doc)
    raw = rp.text.encode("utf-8")
    ordered = sorted(rp.component_spans.items(), key=lambda kv: kv[1][0])
    rebuilt = b"".join(raw[off:off + size] for _, (off, size) in ordered)
    rebuilt += f"Input: {doc.raw_text}\nOutput:\n".encode("utf-8")
    assert rebuilt == raw
    order_index = {k: i for i, k in enumerate(prompt.COMPONENT_ORDER)}
    kinds = [k for k, _ in ordered]
    assert kinds == sorted(kinds, key=order_index.__getitem__)


# items the FormatExample lines of each shipped schema and task parse to
FORMAT_EXAMPLE_ITEMS = {
    ("pet", "MD"): 2, ("pet", "ER"): 2, ("pet", "RE"): 2,
    ("decon", "MD"): 1, ("decon", "CE"): 3,
    ("atdp", "MD"): 2, ("atdp", "CE"): 3,
}


@pytest.mark.parametrize("name,task", sorted(FORMAT_EXAMPLE_ITEMS))
def test_format_example_lines_parse_to_items_of_the_task(name, task):
    schema = corpus.load_schema(name)
    assert task in schema.tasks
    _, _, lines = prompt._output_format(task, schema)
    report = parse(lines, task, schema)
    assert report.error_lines == () and report.ignored_line_count == 0
    assert len(report.items) == FORMAT_EXAMPLE_ITEMS[name, task]
    (kind,) = {k.cls for k in ITEM_KINDS.values() if k.task == task}
    assert all(type(item) is kind for item in report.items)


def test_format_examples_cover_every_shipped_schema_and_task():
    schemas = Path(prompt.__file__).parent / "data" / "schemas"
    shipped = {(path.stem, task) for path in schemas.glob("*.json")
               for task in corpus.load_schema(path.stem).tasks}
    assert shipped == set(FORMAT_EXAMPLE_ITEMS)


# sha256 over the text, fingerprint and shot ids of every prompt of the three
# shipped corpora, document by document: each schema task at 0, 1 and 3 shots
# with run seeds 0 and 5, then its ten ablation variants; recorded before
# few-shot selection and the ablation rows were reworked
PROMPT_DIGEST = "5eaeb2720f557d0b0ba49f41320263096afb85335d30ae59b7cc9e2fba794c23"


def test_prompt_bytes_unchanged():
    digest = hashlib.sha256()
    count = 0
    for dataset in (corpus.load_pet(DATA / "pet.jsonl"),
                    corpus.load_canonical(DATA / "decon.jsonl"),
                    corpus.load_canonical(DATA / "atdp.jsonl")):
        for task in dataset.schema.tasks:
            base = PromptConfig(task=task, schema=dataset.schema)
            configs = [base.replace(shot_count=n, shot_seed=seed)
                       for n in (0, 1, 3) for seed in (0, 5)]
            configs += [variant for _, variant in ablation_variants(base)]
            for config in configs:
                for doc in dataset.documents:
                    rendered = assemble(pipeline._document_config(config, doc.id), doc,
                                        dataset.documents)
                    digest.update(json.dumps([rendered.text, rendered.config_fingerprint,
                                              list(rendered.shot_ids)]).encode() + b"\n")
                    count += 1
    assert count == 3280
    assert digest.hexdigest() == PROMPT_DIGEST
