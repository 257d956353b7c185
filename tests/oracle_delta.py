"""Independent brute-force Burrows' Delta used to cross-check the module.

Deliberately shares no code with stylocloak.styloscope: plain loops, plain
floats, its own mean/std, its own frequency bookkeeping.  Token lists come
in pre-tokenized so the oracle is also independent of the tokenizer.
"""

import math


def per_1000(tokens, word):
    if not tokens:
        return 0.0
    count = 0
    for t in tokens:
        if t == word:
            count += 1
    return count * 1000.0 / len(tokens)


def oracle_burrows_delta(author_docs, candidate_tokens, k, function_words):
    """author_docs: {author: [token_list, ...]}.  Returns {author: delta}.

    Returns None when no selected word varies across reference documents
    (the module raises in that case).
    """
    all_docs = [doc for docs in author_docs.values() for doc in docs]

    totals = {}
    for w in function_words:
        total = 0
        for doc in all_docs:
            for t in doc:
                if t == w:
                    total += 1
        totals[w] = total
    ranked = sorted(function_words, key=lambda w: (-totals[w], w))
    axis = ranked[:k]

    stats = {}
    usable = []
    for w in axis:
        freqs = [per_1000(doc, w) for doc in all_docs]
        # a word whose frequency is the same in every document has no spread,
        # whatever rounding leaves in the computed std
        if min(freqs) == max(freqs):
            continue
        mean = sum(freqs) / len(freqs)
        var = sum((f - mean) ** 2 for f in freqs) / len(freqs)
        stats[w] = (mean, math.sqrt(var))
        usable.append(w)
    if not usable:
        return None

    def z_profile(tokens):
        return [
            (per_1000(tokens, w) - stats[w][0]) / stats[w][1] for w in usable
        ]

    cand = z_profile(candidate_tokens)
    deltas = {}
    for author, docs in author_docs.items():
        merged = [t for doc in docs for t in doc]
        prof = z_profile(merged)
        deltas[author] = sum(
            abs(a - c) for a, c in zip(prof, cand)
        ) / len(usable)
    return deltas
