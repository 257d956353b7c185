"""Lexical stylometry: feature extraction and Burrows' Delta attribution.

Each measurement has one entry point.  :func:`iter_feature_vectors` yields
the feature battery of each document: character n-gram TF-IDF,
special-character TF-IDF, function-word frequencies per 1000 tokens,
token-length statistics, and a hapax/dis legomena vocabulary-richness
ratio.  Burrows' Delta ranks candidate authorship by the mean absolute
difference of function-word frequency z-scores; low values suggest the
same author.  :func:`fit_delta_reference` fits a reference corpus once, and
:func:`score_delta` scores each candidate against it.  It also writes the
``features`` JSON (:func:`_feature_json`) and the ``csv`` and ``markdown``
Delta tables of ``delta`` and ``matrix`` (:func:`render_table`).

Every measurement reads the text it is given.  Zero-width payloads are
therefore visible: the tokenizer treats invisible code points as token
boundaries, and raw character n-grams pick them up directly.  An analyst
who sanitizes input first measures :meth:`Corpus.stripped` or
:meth:`Document.stripped` instead, once, where the text comes in.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter, namedtuple
from collections.abc import Iterator
from functools import cached_property, lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import DataError, _bundled_text
from .zwcodec import read_text_file, strip_zero_width

_TOKEN = re.compile(r"[^\W_]+(?:'[^\W_]+)*")
#: Delta's default word count, for ``delta`` and ``matrix`` alike.
_DELTA_K = 50

#: Symbols counted by special-character TF-IDF: ASCII punctuation plus a few
#: mathematical symbols occasionally used as stylistic flourishes.
SPECIAL_CHARS = frozenset(string.punctuation) | frozenset("∃Δ∞∀∅")


class InsufficientCorpus(DataError):
    """The reference corpus cannot support a Delta computation."""


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; apostrophes internal to words are retained."""
    return _TOKEN.findall(text.lower())


def _count_words(text: str) -> Counter:
    """``Counter(tokenize(text))``, counted from the text's whitespace pieces.

    The token pattern's ``[^\\W_]`` is :meth:`str.isalnum`, char for char,
    and no token holds a :meth:`str.isspace` character, so a piece of the
    lowered text that is all alphanumeric is one token, and any other piece
    yields what ``findall`` finds in it alone.  Those other pieces go
    through one ``findall``, joined by spaces, each repeated by its count.
    """
    bag = Counter(text.lower().split())
    odd = [piece for piece in bag if not piece.isalnum()]
    pieces = chain.from_iterable(map(repeat, odd, map(bag.pop, odd)))
    bag.update(_TOKEN.findall(" ".join(pieces)))
    return bag


@lru_cache(maxsize=1)
def default_function_words() -> tuple[str, ...]:
    """The bundled 175-word English function-word list, in file order."""
    return tuple(w for w in _bundled_text("function_words.txt").splitlines() if w)


class Document(namedtuple("Document", "id text author", defaults=(None,))):
    """A text unit with an optional author label and its cached bag of words.

    A named tuple, so its text cannot change, with no ``__slots__``: its
    instance dict keeps the bag from first use, so each text is counted once.
    """

    @cached_property
    def _bag(self) -> Counter:
        return _count_words(self.text)

    def counts(self) -> Counter:
        """The text's bag of words, ``Counter(tokenize(text))``; read only."""
        return self._bag

    def stripped(self) -> Document:
        """This document without zero-width content: itself, bag and all, if clean."""
        clean = strip_zero_width(self.text)[0]
        return self if len(clean) == len(self.text) else self._replace(text=clean)


class Corpus(namedtuple("Corpus", "documents")):
    """A list of documents, each with an optional author label.

    A named tuple, as it holds nothing but its list: the tuple's ``repr``
    and equality serve, and the list keeps it unhashable and open to
    appends (``features --candidate``).  Stripped, it keeps each clean document.
    """

    __slots__ = ()

    @property
    def authors(self) -> list[str]:
        return sorted({d.author for d in self.documents if d.author is not None})

    def stripped(self) -> Corpus:
        """A copy of this corpus with every document's zero-width content removed."""
        return Corpus([doc.stripped() for doc in self.documents])

    def content_hash(self) -> str:
        # hashlib maps OpenSSL: only digests pay for it, not every feature run
        import hashlib

        digest = hashlib.sha256()
        for doc in sorted(self.documents, key=lambda d: d.id):
            # an id made from a file name that is not UTF-8 hashes as its bytes
            digest.update(doc.id.encode("utf-8", "surrogateescape"))
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


def _tfidf(
    per_doc_counts: dict[str, dict[str, int]], n_docs: int
) -> Iterator[tuple[str, dict[str, float]]]:
    """count(term, doc) * ln(N / df(term)), one document at a time.

    Zero weights are omitted.  Each document's counts are popped from
    ``per_doc_counts`` as its weights are built, so counts and weights of
    every document are never held at once.
    """
    df: Counter = Counter()
    for counts in per_doc_counts.values():
        df.update(counts.keys())
    idf = {term: w for term, d in df.items() if (w := math.log(n_docs / d)) > 0.0}
    del df
    for doc_id in list(per_doc_counts):
        counts = per_doc_counts.pop(doc_id)
        yield doc_id, {t: c * idf[t] for t, c in counts.items() if t in idf}


def _window_counts(text: str, n: int) -> Counter:
    """Each window of ``n`` consecutive characters of ``text``, with its count.

    The windows are read by zipping ``n`` views of the text shifted by
    0..n-1 characters and joining each tuple: ``zip`` reuses its tuple, so
    no slice object is made per position.
    """
    return Counter(map("".join, zip(*[text[i:] for i in range(n)])))


def _char_ngram_counts(
    corpus: Corpus, n_min: int, n_max: int
) -> dict[str, dict[str, int]]:
    """Each document's n-gram counts, every n in [n_min, n_max] in one dict.

    Only the ``n_max``-grams are read from the text (:func:`_window_counts`).
    Every shorter n-gram but the last is the ``n``-prefix of the (n+1)-gram
    that starts where it does, so each shorter level is folded from the
    level above it, plus one for the n-gram at ``len(text) - n``, which
    starts no longer gram.  ``n_max`` is at most 8, so memory grows
    linearly with the corpus.
    """
    if n_min < 1 or n_max < n_min:
        raise DataError(f"invalid n-gram range [{n_min}, {n_max}]")
    if n_max > 8:
        raise DataError(f"invalid n-gram range [{n_min}, {n_max}]: n is at most 8")
    if not corpus.documents:
        raise InsufficientCorpus("empty corpus")
    per_doc = {}
    for doc in corpus.documents:
        text = doc.text.lower()
        size = len(text)
        level = _window_counts(text, n_max)
        counts = dict(level)
        for n in range(n_max - 1, n_min - 1, -1):
            shorter = {}
            get = shorter.get
            for gram, count in level.items():
                prefix = gram[:n]
                shorter[prefix] = get(prefix, 0) + count
            if size >= n:
                last = text[size - n :]
                shorter[last] = get(last, 0) + 1
            counts.update(shorter)
            level = shorter
        per_doc[doc.id] = counts
    return per_doc


def _special_char_counts(corpus: Corpus) -> dict[str, Counter]:
    return {
        doc.id: Counter(filter(SPECIAL_CHARS.__contains__, doc.text))
        for doc in corpus.documents
    }


def function_word_frequencies(doc: Document) -> dict[str, float]:
    """Occurrences per 1000 tokens for every word on the function-word list."""
    words = default_function_words()
    counts = doc.counts()
    if not counts:
        return {w: 0.0 for w in words}
    scale = 1000.0 / counts.total()
    return {w: counts.get(w, 0) * scale for w in words}


def token_length_stats(doc: Document) -> tuple[float, dict[int, float]]:
    """Mean code points per token, and the token-length distribution."""
    counts = doc.counts()
    if not counts:
        return 0.0, {}
    lengths: Counter = Counter()
    for word, count in counts.items():
        lengths[len(word)] += count
    total = counts.total()
    histogram = {n: c / total for n, c in sorted(lengths.items())}
    avg = sum(n * c for n, c in lengths.items()) / total
    return avg, histogram


def vocabulary_richness(doc: Document) -> float:
    """(hapax legomena / dis legomena) / token count; empty text scores 0.

    With no dis legomena the denominator is taken as 1, keeping the ratio
    finite for texts that never repeat a word exactly twice.
    """
    counts = doc.counts()
    if not counts:
        return 0.0
    hapax = sum(1 for c in counts.values() if c == 1)
    dis = sum(1 for c in counts.values() if c == 2)
    return (hapax / (dis or 1)) / counts.total()


def _feature_vector(doc: Document, ngram_vec, special_vec) -> dict:
    avg, histogram = token_length_stats(doc)
    return {
        "char_ngram_tfidf": ngram_vec,
        "special_char_tfidf": special_vec,
        "function_word_freq": function_word_frequencies(doc),
        "avg_chars_per_token": avg,
        "token_length_histogram": {str(n): share for n, share in histogram.items()},
        "vocab_richness": vocabulary_richness(doc),
    }


_FLOAT_TYPE = frozenset({float})


class _FloatReprs(dict):
    """``float.__repr__`` of each distinct float, computed on first lookup.

    For a finite float, ``repr`` is the text ``json.dumps`` writes.  Equal
    floats share one repr unless they are 0.0 and -0.0, so a cache keyed by
    value is sound only for finite floats that are not negative, which every
    feature value is (counts, frequencies, shares, lengths and positive
    idf weights).  A value outside that domain raises when first seen.
    """

    def __missing__(self, value):
        text = float.__repr__(value)
        if not text[0].isdigit():  # "nan", "inf" or a sign
            raise ValueError(f"feature value {text} is not finite and >= 0")
        self[value] = text
        return text


def _feature_json(doc_id: str, vector: dict) -> str:
    """One ``"doc id": {vector}`` member of the ``features`` JSON object.

    The bytes of ``json.dumps(doc_id) + ": " + json.dumps(vector,
    sort_keys=True)`` for a vector whose values are floats or maps of str to
    float, the only shape a feature vector has; any other type raises
    ``TypeError``.  Keys are sorted with ``sorted()`` and quoted by the
    encoder's own ``encode_basestring_ascii``; each distinct float of the
    vector is formatted once.
    """
    reprs = _FloatReprs()
    members = []
    for name in sorted(vector):
        value = vector[name]
        if type(value) is float:
            text = reprs[value]
        elif type(value) is dict and _FLOAT_TYPE.issuperset(map(type, value.values())):
            keys = sorted(value)
            values = map(reprs.__getitem__, map(value.__getitem__, keys))
            pairs = zip(map(_quote, keys), values)
            text = "{" + ", ".join(map(": ".join, pairs)) + "}"
        else:
            raise TypeError(f"feature {name!r} is not a float or a str -> float map")
        members.append(_quote(name) + ": " + text)
    return _quote(doc_id) + ": {" + ", ".join(members) + "}"


def iter_feature_vectors(
    corpus: Corpus,
    n_min: int = 2,
    n_max: int = 4,
) -> Iterator[tuple[str, dict]]:
    """The full feature battery, one ``(doc id, vector)`` at a time.

    A vector is the dict that ``stylocloak features`` prints for the
    document: TF-IDF weighted character n-grams of every n in
    ``[n_min, n_max]`` over the raw lowercased text (spaces included),
    TF-IDF weighted :data:`SPECIAL_CHARS`, function-word frequencies, the
    mean token length, the token-length histogram keyed by ``str(length)``,
    and the vocabulary richness.

    Every document is counted before this returns, so a bad range raises
    here.  Each vector is weighted only when it is asked for, so a consumer
    that lets each one go holds the counts not yet weighted plus at most two
    documents' weights, never every vector.  Ids come in corpus order; an
    id that repeats keeps its first place and its last document, as a dict
    built from the corpus would.
    """
    n_docs = len(corpus.documents)
    ngrams = _tfidf(_char_ngram_counts(corpus, n_min, n_max), n_docs)
    specials = _tfidf(_special_char_counts(corpus), n_docs)
    documents = {doc.id: doc for doc in corpus.documents}
    return (
        (doc_id, _feature_vector(documents[doc_id], ngram_vec, special_vec))
        for (doc_id, ngram_vec), (_, special_vec) in zip(ngrams, specials)
    )


class DeltaReport(namedtuple("DeltaReport", "deltas probabilities function_words_used")):
    """Burrows' Delta per author, with the derived probability ranking.

    ``deltas`` and ``probabilities`` map each author to a float, and
    ``function_words_used`` lists the axis words in order.
    """

    __slots__ = ()


def _sum_left(values) -> float:
    """Add floats left to right, as ``sum()`` did before 3.12 made it
    compensated (gh-100425), so that Delta's digits never depend on Python."""
    total = 0.0
    for value in values:
        total += value
    return total


class DeltaReference(namedtuple("DeltaReference", "words means stds author_z")):
    """A reference corpus fitted for Delta: the axis and each author's place on it.

    ``words`` are the axis words whose frequency differs between reference
    documents, ``means`` and ``stds`` their population statistics over those
    documents, and ``author_z`` one z-profile per author, in sorted author
    order.
    """

    __slots__ = ()


def _frequencies(counts: list[int], total: int) -> list[float]:
    """Occurrences per 1000 tokens; a text with no tokens has none of any word."""
    if total == 0:
        return [0.0] * len(counts)
    return [count * 1000.0 / total for count in counts]


def _z_scores(counts: list[int], total: int, means, stds) -> tuple[float, ...]:
    """The z-scores of a text's axis-word counts, given its token count."""
    freqs = _frequencies(counts, total)
    return tuple((f - mean) / std for f, mean, std in zip(freqs, means, stds))


def fit_delta_reference(reference: Corpus, k: int = _DELTA_K) -> DeltaReference:
    """Fit the reference side of Burrows' Delta once, for any number of scores.

    Each reference document's function words are read from its cached bag
    of words (:meth:`Document.counts`), as a row of counts, so a reference
    fitted again is not counted again.  The k words with the largest column
    sums (ties broken by the word) form the axis.  Each axis word's per-1000
    frequency in every document gives a corpus-wide mean and population
    standard deviation; a word whose frequency is the same in every document
    is dropped.  An author's profile is the frequencies of its concatenated
    documents, from the sums of their rows and token counts, z-scored
    against those statistics.
    """
    if k < 1:
        raise DataError("k must be >= 1")
    authors = [doc.author for doc in reference.documents]
    if all(author is None for author in authors):
        raise InsufficientCorpus("reference corpus has no labeled authors")
    if len(authors) < 2:
        raise InsufficientCorpus("reference corpus needs at least 2 documents")
    if None in authors:
        raise InsufficientCorpus("every reference document needs an author label")

    words = default_function_words()
    rows = []
    sizes = []
    for doc in reference.documents:
        counts = doc.counts()
        rows.append(list(map(counts.get, words, repeat(0))))
        sizes.append(counts.total())
    totals = list(map(sum, zip(*rows)))
    axis = sorted(range(len(words)), key=lambda i: (-totals[i], words[i]))[:k]
    doc_freqs = [
        _frequencies([row[i] for i in axis], size) for row, size in zip(rows, sizes)
    ]
    n_docs = len(rows)
    kept, means, stds = [], [], []
    for i, freqs in zip(axis, zip(*doc_freqs)):
        # Compared, not taken from the std: a frequency every document shares
        # can leave a rounding residue in the mean, and so a tiny std.
        if min(freqs) == max(freqs):
            continue
        mean = _sum_left(freqs) / n_docs
        # population std: duplicating docs is a no-op
        std = math.sqrt(_sum_left((f - mean) * (f - mean) for f in freqs) / n_docs)
        kept.append(i)
        means.append(mean)
        stds.append(std)
    if not kept:
        raise InsufficientCorpus("no function-word variation across documents")

    members: dict[str, list[int]] = {}
    for n, author in enumerate(authors):
        members.setdefault(author, []).append(n)
    author_z = {}
    for author in sorted(members):
        summed = list(map(sum, zip(*(rows[n] for n in members[author]))))
        total = sum(sizes[n] for n in members[author])
        author_z[author] = _z_scores([summed[i] for i in kept], total, means, stds)
    return DeltaReference(
        tuple(words[i] for i in kept), tuple(means), tuple(stds), author_z
    )


def _scored(fitted: DeltaReference, counts: Counter) -> DeltaReport:
    """Burrows' Delta of a text given its bag of words."""
    axis = list(map(counts.get, fitted.words, repeat(0)))
    cand_z = _z_scores(axis, counts.total(), fitted.means, fitted.stds)
    n_words = len(fitted.words)
    deltas = {}
    for author, author_z in fitted.author_z.items():
        gaps = (abs(a - c) for a, c in zip(author_z, cand_z))
        deltas[author] = _sum_left(gaps) / n_words
    return DeltaReport(
        deltas=deltas,
        probabilities=author_probabilities(deltas),
        function_words_used=list(fitted.words),
    )


def score_delta(fitted: DeltaReference, candidate: Document) -> DeltaReport:
    """Burrows' Delta of one candidate against a fitted reference.

    Delta(author) is the mean absolute difference between the author's and
    the candidate's z-scores over the fitted words.  Scoring reads only the
    candidate's bag of words, so a caller that holds a text's bag scores it
    with :func:`_scored` and gets the same floats.
    """
    return _scored(fitted, candidate.counts())


def author_probabilities(deltas: dict[str, float]) -> dict[str, float]:
    """Softmax over negative deltas: lower Delta, higher probability."""
    if not deltas:
        raise ValueError("deltas must be non-empty")
    if any(not math.isfinite(d) for d in deltas.values()):
        raise ValueError("deltas must be finite")
    top = max(-d for d in deltas.values())
    weights = {a: math.exp(-d - top) for a, d in deltas.items()}
    norm = _sum_left(weights.values())
    return {a: w / norm for a, w in weights.items()}


def _csv_cell(cell: str) -> str:
    """A CSV field: quoted, its quotes doubled, if it holds CR, LF, ``,`` or ``"``."""
    if re.search(r'[\r\n,"]', cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_table(
    fmt: str, columns: list[tuple[str, str, str]], records: list[dict]
) -> str:
    """Render records as CSV or as a Markdown table.

    ``columns`` holds one (record key, Markdown heading, format spec) triple
    per column; the key doubles as the CSV header.  A CSV cell is written
    as ``csv.writer`` with an LF line terminator writes it on 3.13: quoted,
    its quotes doubled, if it holds a CR, an LF, a comma or a quote (before
    3.13 the writer leaves a lone CR bare, which a reader takes as a row's
    end).  A ``|`` in a Markdown cell is written ``\\|``, as GFM tables
    escape it, and each line break (CRLF, CR or LF) ``<br>``, the only break
    that GFM keeps inside a cell.
    """
    cells = [[format(r[key], spec) for key, _, spec in columns] for r in records]
    if fmt == "csv":
        rows = [[key for key, _, _ in columns], *cells]
        return "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(heading for _, heading, _ in columns) + " |",
            "|" + "---|" * len(columns),
        ]
        for row in cells:
            row = [re.sub(r"\r\n?|\n", "<br>", c.replace("|", r"\|")) for c in row]
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    # the CLI offers only these formats, so another one is a caller's bug
    raise ValueError(f"unknown report format {fmt!r}")
