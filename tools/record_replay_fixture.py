"""Record the shipped replay regression fixture under data/fixtures/.

Runs one (pet, MD, zero-shot) cell against a deterministic offline
stub whose answers are gold lines with a few planted defects, so the
fixture has realistic imperfect scores and a nonzero parsing-error
count.  Ships three things:

  * replay_cache/        the recorded response cache
  * replay_expected/     frozen scores.json and table.txt bytes
  * pipe_free_response.txt   one response with every pipe knocked out

Rerunning the cell in replay mode against the cache must reproduce
the expected files byte for byte.  Deterministic: running this tool
twice writes identical bytes.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from procex import corpus
from procex.llm import CachingClient, ChatRequest, ChatResponse
from procex.pipeline import run_cell
from procex.prompt import PromptConfig, render_gold

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "data" / "fixtures"

MODEL_ID = "stub-fixture"
TASK = "MD"

# the one marker no prompt configuration removes
TASK_MARK = "one line per mention"


def degraded_provider(dataset):
    """Gold lines with deterministic per-document damage."""

    def provider(request: ChatRequest) -> ChatResponse:
        text = request.prompt_text
        assert TASK_MARK in text
        raw = text.rsplit("Input: ", 1)[1][: -len("\nOutput:\n")]
        doc = next(d for d in dataset.documents if d.raw_text == raw)
        lines = list(render_gold(doc, TASK))
        bucket = int(hashlib.sha256(doc.id.encode("utf-8")).hexdigest(), 16)
        if bucket % 3 == 0 and len(lines) > 1:
            lines.pop()  # a miss: recall drops
        if bucket % 4 == 0:
            lines.append("activity|not in the text")  # ungroundable guess
        if bucket % 5 == 0:
            lines.append("this line forgot its delimiters")
        if bucket % 7 == 0 and lines:
            first_type, _, rest = lines[0].partition("|")
            lines[0] = f"{first_type}ish|{rest}"  # unknown type
        return ChatResponse("\n".join(lines), 0, 0, MODEL_ID)

    return provider


def main() -> None:
    dataset = corpus.load_pet(ROOT / "data" / "pet.jsonl")
    cache_dir = FIXTURES / "replay_cache"
    expected_dir = FIXTURES / "replay_expected"
    for target in (cache_dir, expected_dir):
        if target.exists():
            shutil.rmtree(target)
    staging = FIXTURES / "_staging"
    if staging.exists():
        shutil.rmtree(staging)

    client = CachingClient(cache_dir, degraded_provider(dataset), mode="record")
    cell = run_cell(
        dataset, PromptConfig(task=TASK, schema=dataset.schema),
        client, out_root=staging, model_id=MODEL_ID,
    )
    run_dir = staging / cell.manifest_id
    expected_dir.mkdir(parents=True)
    for name in ("scores.json", "table.txt"):
        shutil.copyfile(run_dir / name, expected_dir / name)
    shutil.rmtree(staging)

    # a response with format conformance stripped out entirely
    doc = dataset.document("doc-1.1")
    broken = "\n".join(render_gold(doc, TASK)).replace("|", " ")
    (FIXTURES / "pipe_free_response.txt").write_text(broken + "\n",
                                                    encoding="utf-8")

    print(f"recorded {len(list(cache_dir.glob('*.json')))} responses")
    print(f"cell: P={cell.scores.precision:.3f} R={cell.scores.recall:.3f} "
          f"F1={cell.scores.f1:.3f} parsing errors={cell.parsing_errors}")


if __name__ == "__main__":
    main()
