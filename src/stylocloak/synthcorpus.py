"""Deterministic synthetic author corpora for experiments and tests.

Real author corpora cannot be bundled here, so this module fabricates two
writers with deliberately different function-word habits: that difference
is exactly the signal Burrows' Delta keys on, which makes the pair a useful
desk-scale stand-in for an attribution study.  Content vocabulary is drawn
from the bundled synonym table so the drift transforms always find targets.

Everything is a pure function of its seed: every pick is drawn as
:func:`~stylocloak.transforms._below` draws it, so a text rests only on
``random.Random``'s ``random()`` and ``getrandbits()``.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache

from .styloscope import Corpus, Document
from .transforms import _below, load_synonyms


def _weighted(pairs: list[tuple[str, int]]) -> tuple[str, ...]:
    return tuple(word for word, weight in pairs for _ in range(weight))


class AuthorStyle(
    namedtuple(
        "AuthorStyle",
        [
            "name",
            "connectors",      # function words, repetition encodes weight
            "adverbs",         # favorite sentence adverbs
            "content_offset",  # where this author's vocabulary slice starts
            "min_words",
            "max_words",
            "terminators",
            "comma_rate",
            "function_rate",
            "adverb_rate",
        ],
        defaults=(0.10,),
    )
):
    __slots__ = ()


@lru_cache(maxsize=None)
def _content_pool(offset: int, size: int = 150) -> tuple[str, ...]:
    keys = sorted(load_synonyms())
    step = max(1, len(keys) // size)
    return tuple(keys[(offset + i * step) % len(keys)] for i in range(size))


STYLE_A = AuthorStyle(
    name="ashford",
    connectors=_weighted(
        [
            ("the", 9), ("of", 7), ("and", 5), ("in", 4), ("that", 4),
            ("which", 3), ("was", 3), ("is", 3), ("with", 2), ("by", 2),
            ("from", 2), ("as", 2), ("to", 2), ("at", 1), ("this", 1),
            ("were", 1), ("be", 1), ("for", 1),
        ]
    ),
    adverbs=(
        "additionally", "moreover", "certainly", "formerly", "completely",
        "carefully", "finally", "deliberately", "initially", "quietly",
    ),
    content_offset=0,
    min_words=12,
    max_words=26,
    terminators=".....",
    comma_rate=0.45,
    function_rate=0.52,
)

STYLE_B = AuthorStyle(
    name="bellamy",
    connectors=_weighted(
        [
            ("a", 7), ("you", 6), ("i", 6), ("it", 5), ("but", 4),
            ("so", 4), ("not", 3), ("on", 3), ("have", 3), ("do", 2),
            ("my", 2), ("your", 2), ("we", 2), ("they", 2), ("there", 1),
            ("now", 1), ("what", 1), ("can", 1),
        ]
    ),
    adverbs=(
        "really", "sometimes", "immediately", "quickly", "easily",
        "nearly", "today", "soon", "absolutely", "accidentally",
    ),
    content_offset=7,
    min_words=5,
    max_words=13,
    terminators="..!?",
    comma_rate=0.15,
    function_rate=0.44,
)


def make_sentence(style: AuthorStyle, rng: random.Random) -> str:
    """One sentence in ``style``, drawn from ``rng``.

    It draws the word count, then per word one ``rng.random()`` and one
    pick from its pool, then the comma roll and cut, then the terminator.
    The per-word picks are ``_below``'s loop written inline, for speed.
    """
    random = rng.random
    getrandbits = rng.getrandbits
    low, high = style.min_words, style.max_words
    if high < low:
        raise ValueError(f"empty range for randint({low}, {high})")
    count = low + _below(getrandbits, high - low + 1)
    # Each pool's bit count and length.  A style's empty pool draws 0 bits
    # against length 1, so its pick draws nothing and fails on the index,
    # as choice fails on an empty sequence.
    connectors, adverbs = style.connectors, style.adverbs
    content = _content_pool(style.content_offset)
    k_connectors = len(connectors).bit_length()
    k_adverbs = len(adverbs).bit_length()
    k_content = len(content).bit_length()
    n_connectors = len(connectors) or 1
    n_adverbs = len(adverbs) or 1
    n_content = len(content)
    function_rate = style.function_rate
    adverb_top = function_rate + style.adverb_rate
    words = []
    append = words.append
    for _ in range(count):
        roll = random()
        if roll < function_rate:
            r = getrandbits(k_connectors)
            while r >= n_connectors:
                r = getrandbits(k_connectors)
            append(connectors[r])
        elif roll < adverb_top:
            r = getrandbits(k_adverbs)
            while r >= n_adverbs:
                r = getrandbits(k_adverbs)
            append(adverbs[r])
        else:
            r = getrandbits(k_content)
            while r >= n_content:
                r = getrandbits(k_content)
            append(content[r])
    if count >= 6 and random() < style.comma_rate:
        cut = 2 + _below(getrandbits, count - 3)
        words[cut] = words[cut] + ","
    sentence = " ".join(words)
    terminators = style.terminators
    return sentence[0].upper() + sentence[1:] + terminators[
        _below(getrandbits, len(terminators))
    ]


def make_text(style: AuthorStyle, seed: int, n_chars: int) -> str:
    """At least ``n_chars`` of styled text, broken into paragraph lines."""
    rng = random.Random(seed)
    lines = []
    total = 0
    while total < n_chars:
        sentences_in_line = 3 + _below(rng.getrandbits, 4)
        current: list[str] = []
        while len(current) < sentences_in_line and total < n_chars:
            sentence = make_sentence(style, rng)
            current.append(sentence)
            total += len(sentence) + 1
        lines.append(" ".join(current))
    return "\n".join(lines)


def make_author_documents(
    style: AuthorStyle, seed: int, n_docs: int, chars_per_doc: int
) -> list[Document]:
    return [
        Document(
            id=f"{style.name}/{style.name}_{idx:02d}.txt",
            text=make_text(style, seed * 1000 + idx, chars_per_doc),
            author=style.name,
        )
        for idx in range(n_docs)
    ]


def two_author_corpus(
    seed: int = 0, n_docs: int = 8, chars_per_doc: int = 6000
) -> Corpus:
    docs = make_author_documents(STYLE_A, seed * 2 + 1, n_docs, chars_per_doc)
    docs += make_author_documents(STYLE_B, seed * 2 + 2, n_docs, chars_per_doc)
    return Corpus(docs)


def candidate_for(style: AuthorStyle, seed: int = 0, n_chars: int = 5000) -> Document:
    """A held-out sample in the given style, distinct from corpus seeds."""
    return Document(
        id=f"candidate_{style.name}.txt",
        text=make_text(style, seed * 2 + 999_983, n_chars),
        author=style.name,
    )
