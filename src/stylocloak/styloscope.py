"""Lexical stylometry: feature extraction and Burrows' Delta attribution.

The feature battery covers character n-gram TF-IDF, special-character
TF-IDF, function-word frequencies per 1000 tokens, token-length statistics,
and a hapax/dis legomena vocabulary-richness ratio.  Burrows' Delta ranks
candidate authorship by the mean absolute difference of function-word
frequency z-scores; low values suggest the same author.

Zero-width payloads are deliberately visible to this module by default:
the tokenizer treats invisible code points as token boundaries, and raw
character n-grams pick them up directly.  Passing ``strip=True`` removes
them before any measurement, which models an analysis pipeline that
sanitizes its input first.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .zwcodec import read_text_file, strip_zero_width

_TOKEN = re.compile(r"[^\W_]+(?:'[^\W_]+)*")

#: Symbols counted by special-character TF-IDF: ASCII punctuation plus a few
#: mathematical symbols occasionally used as stylistic flourishes.
SPECIAL_CHARS = frozenset(string.punctuation) | frozenset("∃Δ∞∀∅")


class InvalidRange(ValueError):
    """An n-gram range with n_min < 1 or n_max < n_min."""


class InsufficientCorpus(ValueError):
    """The reference corpus cannot support a Delta computation."""


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; apostrophes internal to words are retained."""
    return _TOKEN.findall(text.lower())


@lru_cache(maxsize=1)
def default_function_words() -> tuple[str, ...]:
    """The bundled 175-word English function-word list, in file order."""
    data = resources.files("stylocloak").joinpath("data/function_words.txt")
    return tuple(w for w in data.read_text(encoding="utf-8").splitlines() if w)


@dataclass
class Document:
    """A text unit with an optional author label and cached tokenizations."""

    id: str
    text: str
    author: str | None = None
    _token_cache: dict[bool, list[str]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def tokens(self, strip: bool = False) -> list[str]:
        cached = self._token_cache.get(strip)
        if cached is None:
            cached = self._token_cache[strip] = tokenize(self.view_text(strip))
        return cached

    def view_text(self, strip: bool = False) -> str:
        return strip_zero_width(self.text)[0] if strip else self.text


@dataclass
class Corpus:
    """A collection of documents, grouped by author label on demand."""

    documents: list[Document]

    @property
    def authors(self) -> list[str]:
        return sorted({d.author for d in self.documents if d.author is not None})

    def by_author(self) -> dict[str, list[Document]]:
        grouped: dict[str, list[Document]] = {}
        for doc in self.documents:
            if doc.author is not None:
                grouped.setdefault(doc.author, []).append(doc)
        return grouped

    def content_hash(self) -> str:
        digest = hashlib.sha256()
        for doc in sorted(self.documents, key=lambda d: d.id):
            digest.update(doc.id.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(doc.text.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()


def load_corpus(root) -> Corpus:
    """Load ``<root>/<author>/<doc>.txt`` into a labeled corpus."""
    root = Path(root)
    documents = []
    for author_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for doc_path in sorted(author_dir.glob("*.txt")):
            documents.append(
                Document(
                    id=f"{author_dir.name}/{doc_path.name}",
                    text=read_text_file(doc_path),
                    author=author_dir.name,
                )
            )
    if not documents:
        raise InsufficientCorpus(f"no author/*.txt documents under {root}")
    return Corpus(documents)


def _tfidf(per_doc_counts: dict[str, Counter], n_docs: int) -> dict[str, dict[str, float]]:
    """count(term, doc) * ln(N / df(term)); zero weights are omitted."""
    df: Counter = Counter()
    for counts in per_doc_counts.values():
        df.update(counts.keys())
    vectors = {}
    for doc_id, counts in per_doc_counts.items():
        vec = {}
        for term, count in counts.items():
            idf = math.log(n_docs / df[term])
            if idf > 0.0:
                vec[term] = count * idf
        vectors[doc_id] = vec
    return vectors


def char_ngram_tfidf(
    corpus: Corpus,
    n_min: int = 2,
    n_max: int = 4,
    strip: bool = False,
) -> dict[str, dict[str, float]]:
    """TF-IDF weighted character n-grams over raw lowercased text.

    N-grams are drawn from the unsegmented text, spaces included, so they
    capture spelling quirks and inter-word transitions alike.
    """
    if n_min < 1 or n_max < n_min:
        raise InvalidRange(f"invalid n-gram range [{n_min}, {n_max}]")
    if not corpus.documents:
        raise InsufficientCorpus("empty corpus")
    per_doc = {}
    for doc in corpus.documents:
        text = doc.view_text(strip).lower()
        counts: Counter = Counter()
        for n in range(n_min, n_max + 1):
            for i in range(len(text) - n + 1):
                counts[text[i : i + n]] += 1
        per_doc[doc.id] = counts
    return _tfidf(per_doc, len(corpus.documents))


def special_char_tfidf(
    corpus: Corpus, strip: bool = False
) -> dict[str, dict[str, float]]:
    """TF-IDF over single characters from :data:`SPECIAL_CHARS`."""
    per_doc = {}
    for doc in corpus.documents:
        text = doc.view_text(strip)
        per_doc[doc.id] = Counter(c for c in text if c in SPECIAL_CHARS)
    return _tfidf(per_doc, len(corpus.documents))


def function_word_frequencies(doc: Document, strip: bool = False) -> dict[str, float]:
    """Occurrences per 1000 tokens for every word on the function-word list."""
    words = default_function_words()
    tokens = doc.tokens(strip)
    if not tokens:
        return {w: 0.0 for w in words}
    counts = Counter(tokens)
    scale = 1000.0 / len(tokens)
    return {w: counts.get(w, 0) * scale for w in words}


def token_length_stats(
    doc: Document, strip: bool = False
) -> tuple[float, dict[int, float]]:
    """Mean code points per token, and the token-length distribution."""
    tokens = doc.tokens(strip)
    if not tokens:
        return 0.0, {}
    lengths = Counter(len(t) for t in tokens)
    total = len(tokens)
    histogram = {n: c / total for n, c in sorted(lengths.items())}
    avg = sum(len(t) for t in tokens) / total
    return avg, histogram


def vocabulary_richness(doc: Document, strip: bool = False) -> float:
    """(hapax legomena / dis legomena) / token count; empty text scores 0.

    With no dis legomena the denominator is taken as 1, keeping the ratio
    finite for texts that never repeat a word exactly twice.
    """
    tokens = doc.tokens(strip)
    if not tokens:
        return 0.0
    counts = Counter(tokens)
    hapax = sum(1 for c in counts.values() if c == 1)
    dis = sum(1 for c in counts.values() if c == 2)
    return (hapax / (dis or 1)) / len(tokens)


@dataclass(frozen=True)
class FeatureVector:
    """The per-document lexical feature bundle."""

    char_ngram_tfidf: dict[str, float]
    special_char_tfidf: dict[str, float]
    function_word_freq: dict[str, float]
    avg_chars_per_token: float
    token_length_histogram: dict[int, float]
    vocab_richness: float


def extract_feature_vectors(
    corpus: Corpus,
    n_min: int = 2,
    n_max: int = 4,
    strip: bool = False,
) -> dict[str, FeatureVector]:
    """Compute the full feature battery for every document in the corpus."""
    ngrams = char_ngram_tfidf(corpus, n_min, n_max, strip)
    specials = special_char_tfidf(corpus, strip)
    vectors = {}
    for doc in corpus.documents:
        avg, histogram = token_length_stats(doc, strip)
        vectors[doc.id] = FeatureVector(
            char_ngram_tfidf=ngrams[doc.id],
            special_char_tfidf=specials[doc.id],
            function_word_freq=function_word_frequencies(doc, strip),
            avg_chars_per_token=avg,
            token_length_histogram=histogram,
            vocab_richness=vocabulary_richness(doc, strip),
        )
    return vectors


@dataclass(frozen=True)
class DeltaReport:
    """Burrows' Delta per author, with the derived probability ranking."""

    deltas: dict[str, float]
    probabilities: dict[str, float]
    function_words_used: list[str]
    z_scores: dict[str, dict[str, float]]

    def best_author(self) -> str:
        return min(self.deltas, key=lambda a: (self.deltas[a], a))

    def to_json(self) -> str:
        return json.dumps(
            {
                "deltas": self.deltas,
                "probabilities": self.probabilities,
                "function_words_used": self.function_words_used,
            },
            sort_keys=True,
        )


def _per_1000(counts: Counter, total: int, word: str) -> float:
    if total == 0:
        return 0.0
    return counts.get(word, 0) * 1000.0 / total


@dataclass(frozen=True)
class DeltaReference:
    """A reference corpus fitted for Delta: the axis and each author's place on it.

    ``words`` are the axis words with non-zero variance, ``means`` and
    ``stds`` their population statistics over the reference documents, and
    ``author_z`` one z-profile per author, in sorted author order.
    """

    words: tuple[str, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    author_z: dict[str, tuple[float, ...]]
    strip: bool


def _z_profile(tokens: list[str], words, means, stds) -> tuple[float, ...]:
    counts = Counter(tokens)
    return tuple(
        (_per_1000(counts, len(tokens), w) - mean) / std
        for w, mean, std in zip(words, means, stds)
    )


def fit_delta_reference(
    reference: Corpus, k: int = 50, strip: bool = False
) -> DeltaReference:
    """Fit the reference side of Burrows' Delta once, for any number of scores.

    The k most frequent function words across the whole reference corpus
    form the word axis.  Each word's per-1000 frequency is measured in every
    reference document to obtain a corpus-wide mean and population standard
    deviation; words with zero variance are dropped.  Author profiles
    (concatenated subcorpora) are z-scored against those statistics.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    grouped = reference.by_author()
    if not grouped:
        raise InsufficientCorpus("reference corpus has no labeled authors")
    if len(reference.documents) < 2:
        raise InsufficientCorpus("reference corpus needs at least 2 documents")
    if any(doc.author is None for doc in reference.documents):
        raise InsufficientCorpus("every reference document needs an author label")

    doc_tokens = [doc.tokens(strip) for doc in reference.documents]
    doc_counts = [Counter(tokens) for tokens in doc_tokens]
    total_counts: Counter = Counter()
    for counts in doc_counts:
        total_counts.update(counts)

    ranked = sorted(
        default_function_words(), key=lambda w: (-total_counts.get(w, 0), w)
    )
    n_docs = len(doc_tokens)
    kept, means, stds = [], [], []
    for w in ranked[:k]:
        freqs = [
            _per_1000(counts, len(tokens), w)
            for counts, tokens in zip(doc_counts, doc_tokens)
        ]
        mean = sum(freqs) / n_docs
        # population std: duplicating docs is a no-op
        std = math.sqrt(sum((f - mean) * (f - mean) for f in freqs) / n_docs)
        if std > 0.0:
            kept.append(w)
            means.append(mean)
            stds.append(std)
    if not kept:
        raise InsufficientCorpus("no function-word variation across documents")

    author_z = {
        author: _z_profile(
            [t for doc in docs for t in doc.tokens(strip)], kept, means, stds
        )
        for author, docs in sorted(grouped.items())
    }
    return DeltaReference(tuple(kept), tuple(means), tuple(stds), author_z, strip)


def score_delta(fitted: DeltaReference, candidate: Document) -> DeltaReport:
    """Burrows' Delta of one candidate against a fitted reference.

    Delta(author) is the mean absolute difference between the author's and
    the candidate's z-scores over the fitted words.
    """
    cand_z = _z_profile(
        candidate.tokens(fitted.strip), fitted.words, fitted.means, fitted.stds
    )
    n_words = len(fitted.words)
    deltas = {}
    z_scores = {"candidate": dict(zip(fitted.words, cand_z))}
    for author, author_z in fitted.author_z.items():
        deltas[author] = sum(abs(a - c) for a, c in zip(author_z, cand_z)) / n_words
        z_scores[author] = dict(zip(fitted.words, author_z))
    return DeltaReport(
        deltas=deltas,
        probabilities=author_probabilities(deltas),
        function_words_used=list(fitted.words),
        z_scores=z_scores,
    )


def burrows_delta(
    reference: Corpus, candidate: Document, k: int = 50, strip: bool = False
) -> DeltaReport:
    """Burrows' Delta of the candidate against each reference author.

    One :func:`fit_delta_reference` followed by one :func:`score_delta`;
    fit once and score many when several candidates share a reference.
    """
    return score_delta(fit_delta_reference(reference, k, strip), candidate)


def author_probabilities(deltas: dict[str, float]) -> dict[str, float]:
    """Softmax over negative deltas: lower Delta, higher probability."""
    if not deltas:
        raise ValueError("deltas must be non-empty")
    if any(not math.isfinite(d) for d in deltas.values()):
        raise ValueError("deltas must be finite")
    top = max(-d for d in deltas.values())
    weights = {a: math.exp(-d - top) for a, d in deltas.items()}
    norm = sum(weights.values())
    return {a: w / norm for a, w in weights.items()}
