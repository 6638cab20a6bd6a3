"""Modular prompt assembly.

A prompt is a fixed-order sequence of toggleable components in three
blocks (context, task description, restrictions), followed by the
target text under an ``Input:`` delimiter. Component wording lives in
``data/templates/default.txt``: an exact ``[Name]`` line opens each
component's section, in prompt order, and ``{placeholders}`` are filled
from the schema and the config. A component whose text renders empty
is left out, which is how FewShot drops out at zero shots.
"""

from __future__ import annotations

import enum
import functools
import json
import random
import re
from dataclasses import dataclass, field
from types import MappingProxyType

from . import sha256_hex
from .corpus import DATA_DIR, Document, SchemaDescriptor, TASKS


class PromptError(ValueError):
    pass


# In prompt order. Block A: context, block B: task description, block C:
# restrictions.
class PromptComponentKind(enum.Enum):
    PERSONA = "Persona"
    CONTEXT_MANAGER = "ContextManager"
    META_LANGUAGE = "MetaLanguage"
    CHAIN_OF_THOUGHT = "ChainOfThought"
    FACT_LIST = "FactList"
    REFLECTION = "Reflection"
    ADDITIONAL_CONSIDERATIONS = "AdditionalConsiderations"
    DISAMBIGUATION = "Disambiguation"
    FORMAT_SPEC = "FormatSpec"
    FORMAT_EXAMPLE = "FormatExample"
    FEW_SHOT = "FewShot"


K = PromptComponentKind

COMPONENT_ORDER = tuple(PromptComponentKind)

ALL_COMPONENTS = frozenset(COMPONENT_ORDER)

TASK_GOALS = {
    "MD": "finding every mention of a process element in the text",
    "ER": "grouping mentions that refer to the same process element",
    "RE": "extracting relations between process elements",
    "CE": "extracting the declarative constraints the text states",
}


@dataclass(frozen=True)
class PromptConfig:
    task: str
    schema: SchemaDescriptor
    enabled: frozenset = ALL_COMPONENTS
    shot_count: int = 0
    shot_seed: int = 0
    brevity: str = "full"

    def validate(self) -> None:
        if self.task not in TASKS:
            raise PromptError(f"unknown task {self.task!r}")
        if self.brevity not in ("full", "very_short"):
            raise PromptError(f"unknown brevity {self.brevity!r}")
        if self.shot_count < 0:
            raise PromptError("shot_count must be >= 0")
        if K.FORMAT_SPEC not in self.enabled:
            raise PromptError("FormatSpec can not be disabled")
        if self.shot_count > 0 and K.FEW_SHOT not in self.enabled:
            raise PromptError("shot_count > 0 requires the FewShot component")
        unknown = {k for k in self.enabled if not isinstance(k, PromptComponentKind)}
        if unknown:
            raise PromptError(f"unknown components: {unknown}")

    def replace(self, **changes) -> "PromptConfig":
        from dataclasses import replace

        return replace(self, **changes)

    def to_record(self) -> dict:
        return {
            "task": self.task,
            "schema": self.schema.dataset_name,
            "enabled": sorted(k.value for k in self.enabled),
            "shot_count": self.shot_count,
            "shot_seed": self.shot_seed,
            "brevity": self.brevity,
        }


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    component_spans: dict = field(compare=False)
    config_fingerprint: str = ""
    shot_ids: tuple = ()


@functools.cache
def load_template() -> MappingProxyType:
    """The bundled template, split at its ``[Name]`` lines, as a read-only
    {kind: text}; an unknown name raises ValueError.

    Read once per process; every caller shares the same mapping.
    """
    raw = (DATA_DIR / "templates" / "default.txt").read_text(encoding="utf-8")
    parts = re.split(r"^\[([A-Za-z]+)\]$", raw, flags=re.M)
    return MappingProxyType({PromptComponentKind(name): body.strip()
                             for name, body in zip(parts[1::2], parts[2::2])})


def first_sentence(text: str) -> str:
    m = re.search(r"(?<=[.!?])\s", text)
    return text[: m.start()].strip() if m else text.strip()


def _per_type_lines(config: PromptConfig, types) -> tuple[str, str]:
    """The definitions and disambiguation hints of types, a line per type."""
    schema = config.schema
    shorten = first_sentence if config.brevity == "very_short" else str
    definitions, hints = [], []
    for name in types:
        definitions.append(f"{name}: {shorten(schema.definitions[name])}")
        if schema.hints.get(name):
            hints.append(f"{name}: {' '.join(map(shorten, schema.hints[name]))}")
    return "\n".join(definitions), "\n".join(hints)


def _output_format(task: str, schema: SchemaDescriptor) -> tuple[tuple, str, str]:
    """A task's type inventory, format rules and format example lines."""
    if task == "MD":
        types = schema.mention_types
        valid = ", ".join(t.lower() for t in types)
        return types, (
            "Answer with one line per mention, in reading order. Each line is "
            "the mention type, a pipe, and the exact words of the mention:\n"
            "<type>|<words>\n"
            f"Valid types: {valid}. Copy the words exactly as they appear in "
            "the input. Write nothing after the output lines."
        ), "\n".join(f"{t.lower()}|{words}"
                     for t, words in zip(types, ("records", "the analyst")))
    if task == "ER":
        return schema.mention_types, (
            "Answer with one line per entity. A line starts with the word "
            "entity, followed by the words of every mention of that entity in "
            "reading order, separated by pipes:\n"
            "entity|<words>|<words>|...\n"
            "Entities with a single mention get a line too. Copy mention "
            "words exactly as they appear in the input."
        ), "entity|the analyst|she\nentity|records"
    if task == "RE":
        types = schema.relation_types
        valid = ", ".join(t.lower() for t in types)
        return types, (
            "Answer with one line per relation. Each line is the relation "
            "type, the words of the source mention, and the words of the "
            "target mention:\n"
            "<type>|<source words>|<target words>\n"
            f"Valid types: {valid}. Copy mention words exactly as they appear "
            "in the input."
        ), "\n".join(f"{t}|records|{target}"
                     for t, target in zip(types, ("files", "the report")))
    # CE
    types = schema.constraint_types
    unary = [t for t in types if schema.is_unary(t)]
    binary = [t for t in types if not schema.is_unary(t)]
    rules = ["Answer with one line per constraint. The second field is the word "
             "not for a negated constraint and empty otherwise."]
    examples = []
    if unary:
        rules.append(f"Unary types ({', '.join(unary)}) take one action:\n"
                     "<type>|<not or empty>|<action>")
        examples.append(f"{unary[0]}||open case")
    if binary:
        rules.append(f"Binary types ({', '.join(binary)}) take two actions:\n"
                     "<type>|<not or empty>|<first action>|<second action>")
        examples += [f"{binary[0]}||open case|close case",
                     f"{binary[0]}|not|open case|close case"]
    rules.append("Write actions in base verb form without articles.")
    return types, "\n".join(rules), "\n".join(examples)


def _render_examples(shots: list, task: str) -> str:
    """Each shot document's text, then its gold lines for task."""
    blocks = []
    for shot in shots:
        lines = "\n".join(render_gold(shot, task))
        blocks.append(f"Example input:\n{shot.raw_text}\nExpected output:\n{lines}")
    return "\n\n".join(blocks)


def render_gold(doc: Document, task: str) -> list:
    """Serialize gold annotations as output-grammar lines.

    Grounding the lines over the same document gives back exactly the
    gold spans only under the condition that
    ``tools/make_datasets.py::check_groundable`` asserts (see README).
    """
    if task == "MD":
        ordered = sorted(doc.mentions, key=lambda m: m.token_indices[0])
        return [f"{m.mention_type.lower()}|{doc.surface(m)}" for m in ordered]
    if task == "ER":
        return ["|".join(["entity"] + [doc.surface(m) for m in ms])
                for ms in doc.clusters(doc.mentions)]
    if task == "RE":
        mmap = doc.mention_map()
        return [
            f"{r.relation_type}|{doc.surface(mmap[r.source_mention_id])}"
            f"|{doc.surface(mmap[r.target_mention_id])}"
            for r in doc.relations
        ]
    if task == "CE":
        lines = []
        for c in doc.constraints:
            fields = [c.constraint_type, "not" if c.negated else "", c.first_action]
            if c.second_action is not None:
                fields.append(c.second_action)
            lines.append("|".join(fields))
        return lines
    raise PromptError(f"unknown task {task!r}")


def select_shots(pool: list, n: int, exclude: str, seed: int) -> list:
    """Draw n few-shot documents from pool minus the excluded document."""
    eligible = sorted((d for d in pool if d.id != exclude), key=lambda d: d.id)
    if n > len(eligible):
        raise PromptError(
            f"requested {n} shots but only {len(eligible)} documents are available"
        )
    return random.Random(seed).sample(eligible, n)


def assemble(
    config: PromptConfig,
    target: Document,
    shot_pool: list = (),
    template: MappingProxyType | None = None,
) -> RenderedPrompt:
    """Build the prompt for one document."""
    config.validate()
    if template is None:
        template = load_template()

    shots: list = []
    if config.shot_count > 0:
        shots = select_shots(
            list(shot_pool), config.shot_count, target.id, config.shot_seed
        )

    types, format_rules, format_example_lines = _output_format(config.task, config.schema)
    type_definitions, disambiguation_hints = _per_type_lines(config, types)
    values = {
        "task_goal": TASK_GOALS[config.task],
        "type_definitions": type_definitions,
        "considerations": "\n".join(config.schema.considerations),
        "disambiguation_hints": disambiguation_hints,
        "format_rules": format_rules,
        "format_example_lines": format_example_lines,
        "examples": _render_examples(shots, config.task),
    }

    spans: dict = {}
    chunks: list[str] = []
    offset = 0
    for kind in COMPONENT_ORDER:
        if kind not in config.enabled:
            continue
        body = template[kind].format(**values).strip()
        if not body:
            continue
        chunk = body + "\n\n"
        size = len(chunk.encode("utf-8"))
        spans[kind] = (offset, size)
        chunks.append(chunk)
        offset += size
    chunks.append(f"Input: {target.raw_text}\nOutput:\n")

    fingerprint = sha256_hex(json.dumps(
        {
            "config": config.to_record(),
            "target": target.id,
            "shots": [s.id for s in shots],
        },
        sort_keys=True,
    ))

    return RenderedPrompt(
        text="".join(chunks),
        component_spans=spans,
        config_fingerprint=fingerprint,
        shot_ids=tuple(s.id for s in shots),
    )


# each row's PromptConfig.replace keywords, applied to the full zero-shot base
ABLATION_ROWS = (
    ("Baseline", {}),
    ("No Format Examples", {"enabled": ALL_COMPONENTS - {K.FORMAT_EXAMPLE}}),
    ("No Context Manager", {"enabled": ALL_COMPONENTS - {K.CONTEXT_MANAGER}}),
    ("No Persona", {"enabled": ALL_COMPONENTS - {K.PERSONA}}),
    ("No Meta Language", {"enabled": ALL_COMPONENTS - {K.META_LANGUAGE}}),
    ("No Chain of Thought", {"enabled": ALL_COMPONENTS - {K.CHAIN_OF_THOUGHT}}),
    ("No Disambiguation", {"enabled": ALL_COMPONENTS - {K.DISAMBIGUATION}}),
    ("No Reflection", {"enabled": ALL_COMPONENTS - {K.REFLECTION}}),
    ("No Fact Check List", {"enabled": ALL_COMPONENTS - {K.FACT_LIST}}),
    ("Very Short Prompt", {"brevity": "very_short"}),
)


def ablation_variants(base: PromptConfig) -> list:
    """The ten ablation configurations, each one change away from base."""
    base.validate()
    if base.enabled != ALL_COMPONENTS:
        raise PromptError("ablation base must have every component enabled")
    if base.brevity != "full":
        raise PromptError("ablation base must use full brevity")
    return [(label, base.replace(**changes)) for label, changes in ABLATION_ROWS]
