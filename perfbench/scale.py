"""Scale documents: one corpus concatenated k times into one document.

Every copy of every source document is appended in order. Token
indices and sentence indices are shifted past what came before, and
mention, entity and relation ids get a per-part prefix, so the result
is a valid document whose annotation counts are exactly k times those
of the 1x document.
"""

from __future__ import annotations

from procex.corpus import Document, Entity, Mention, Relation, Token


def build_scale_document(documents, k: int, doc_id: str | None = None,
                         order=None) -> Document:
    """Concatenate ``documents`` k times into one document.

    ``order`` optionally permutes the source documents (the same
    permutation for every copy).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sources = list(documents) if order is None else [documents[i] for i in order]
    tokens: list = []
    mentions: list = []
    entities: list = []
    relations: list = []
    words: list = []
    sentence_base = 0
    for copy in range(k):
        for part, doc in enumerate(sources):
            prefix = f"c{copy}d{part}-"
            token_base = len(tokens)
            for t in doc.tokens:
                tokens.append(Token(t.text, token_base + t.index,
                                    sentence_base + t.sentence_index))
            words.extend(t.text for t in doc.tokens)
            if doc.tokens:
                sentence_base += max(t.sentence_index for t in doc.tokens) + 1
            for m in doc.mentions:
                mentions.append(Mention(
                    prefix + m.id, m.mention_type,
                    tuple(token_base + i for i in m.token_indices),
                ))
            for e in doc.entities:
                entities.append(Entity(
                    prefix + e.id, frozenset(prefix + mid for mid in e.mention_ids)
                ))
            for r in doc.relations:
                relations.append(Relation(
                    prefix + r.id, r.relation_type,
                    prefix + r.source_mention_id, prefix + r.target_mention_id,
                ))
    return Document(
        id=doc_id or f"scale-{k}x",
        raw_text=" ".join(words),
        tokens=tuple(tokens),
        mentions=tuple(mentions),
        entities=tuple(entities),
        relations=tuple(relations),
    )
