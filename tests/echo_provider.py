"""The gold-echo provider the test modules share.

It answers every prompt with the target document's own annotations
rendered in the output grammar, so a correct pipeline scores 1.
"""

from procex.corpus import Dataset
from procex.llm import ChatRequest, ChatResponse
from procex.prompt import render_gold

# the format section is the one part no ablation removes, so its
# wording identifies the task in any variant's prompt
TASK_MARKERS = {
    "MD": "one line per mention",
    "ER": "one line per entity",
    "RE": "one line per relation",
    "CE": "one line per constraint",
}


def gold_echo(dataset: Dataset):
    """Provider answering each prompt with the target's gold lines."""

    def provider(request: ChatRequest) -> ChatResponse:
        text = request.prompt_text
        task = next(t for t, mark in TASK_MARKERS.items() if mark in text)
        tail = text.rsplit("Input: ", 1)[1]
        raw = tail[: -len("\nOutput:\n")]
        doc = next(d for d in dataset.documents if d.raw_text == raw)
        return ChatResponse("\n".join(render_gold(doc, task)), 0, 0, "gold-echo")

    return provider
