import hashlib
import json
import math
import random
import string
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_delta import oracle_burrows_delta
from stylocloak import DataError, zwcodec
from stylocloak.styloscope import (
    SPECIAL_CHARS,
    Corpus,
    Document,
    InsufficientCorpus,
    _char_ngram_counts,
    _count_words,
    _feature_json,
    _sum_left,
    author_probabilities,
    default_function_words,
    fit_delta_reference,
    function_word_frequencies,
    iter_feature_vectors,
    load_corpus,
    render_table,
    score_delta,
    token_length_stats,
    tokenize,
    vocabulary_richness,
)


def doc(text, author=None, doc_id="d"):
    return Document(id=doc_id, text=text, author=author)


def corpus(*texts):
    return Corpus([doc(t, doc_id=f"d{i}") for i, t in enumerate(texts)])


def feature(name, reference, n_min=2, n_max=4):
    """One member of every document's feature vector, by document id."""
    return {
        doc_id: vector[name]
        for doc_id, vector in iter_feature_vectors(reference, n_min, n_max)
    }


def delta(reference, candidate, k=50):
    return score_delta(fit_delta_reference(reference, k), candidate)


# --- tokenizer ---------------------------------------------------------------

def test_tokenize_keeps_internal_apostrophes():
    assert tokenize("Don't panic.") == ["don't", "panic"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_collapses_whitespace():
    assert tokenize("a  b") == ["a", "b"]


def test_tokenize_splits_on_zero_width_code_points():
    assert tokenize("pa" + zwcodec.BIT0 + "nic") == ["pa", "nic"]


# --- tf-idf ------------------------------------------------------------------

def test_char_ngram_tfidf_single_document_all_zero():
    vectors = feature("char_ngram_tfidf", corpus("abcd"), 2, 2)
    assert vectors["d0"] == {}


def test_char_ngram_tfidf_hand_values():
    vectors = feature("char_ngram_tfidf", corpus("abab", "cdcd"), 2, 2)
    # "ab" occurs twice in d0 only: weight 2 * ln(2/1)
    assert vectors["d0"]["ab"] == pytest.approx(2 * math.log(2))
    assert "ab" not in vectors["d1"]


def test_char_ngram_tfidf_shared_gram_weighs_zero():
    vectors = feature("char_ngram_tfidf", corpus("xy ab", "xy cd"), 2, 2)
    assert "xy" not in vectors["d0"] and "xy" not in vectors["d1"]


def test_char_ngram_tfidf_lowercases_and_keeps_spaces():
    vectors = feature("char_ngram_tfidf", corpus("A b", "zz"), 2, 2)
    assert vectors["d0"]["a "] == pytest.approx(math.log(2))


def test_char_ngram_invalid_range():
    with pytest.raises(DataError, match=r"^invalid n-gram range \[0, 2\]$"):
        feature("char_ngram_tfidf", corpus("ab"), 0, 2)
    with pytest.raises(DataError, match=r"^invalid n-gram range \[3, 2\]$"):
        feature("char_ngram_tfidf", corpus("ab"), 3, 2)


def test_char_ngram_range_ends_at_8():
    assert feature("char_ngram_tfidf", corpus("abcdefghi", "x"), 8, 8)["d0"]
    for n_min, n_max in [(1, 9), (9, 9), (1, 10**9)]:
        message = rf"^invalid n-gram range \[{n_min}, {n_max}\]: n is at most 8$"
        with pytest.raises(DataError, match=message):
            feature("char_ngram_tfidf", corpus("ab"), n_min, n_max)


def test_special_char_tfidf_no_symbols():
    vectors = feature("special_char_tfidf", corpus("plain words", "more words"))
    assert vectors["d0"] == {} and vectors["d1"] == {}


def test_special_char_tfidf_hand_value():
    vectors = feature("special_char_tfidf", corpus("hey!!", "calm"))
    assert vectors["d0"]["!"] == pytest.approx(2 * math.log(2))


def test_special_char_in_every_document_weighs_zero():
    vectors = feature("special_char_tfidf", corpus("a!", "b!"))
    assert vectors["d0"] == {} and vectors["d1"] == {}


def oracle_tfidf(documents, terms_of):
    """TF-IDF the slow way: one count per term seen, one ``math.log`` per (doc, term).

    A repeated document id keeps its last document, while N counts every
    document.
    """
    per_doc = {}
    for document in documents:
        counts = Counter()
        for term in terms_of(document.text):
            counts[term] += 1
        per_doc[document.id] = counts
    df = Counter()
    for counts in per_doc.values():
        df.update(counts.keys())
    vectors = {}
    for doc_id, counts in per_doc.items():
        vec = {}
        for term, count in counts.items():
            idf = math.log(len(documents) / df[term])
            if idf > 0.0:
                vec[term] = count * idf
        vectors[doc_id] = vec
    return vectors


def oracle_ngrams(n_min, n_max):
    def terms_of(text):
        text = text.lower()
        for n in range(n_min, n_max + 1):
            for i in range(len(text) - n + 1):
                yield text[i : i + n]

    return terms_of


def oracle_specials(text):
    return (c for c in text if c in SPECIAL_CHARS)


# ASCII, symbols counted as special, and non-ASCII letters; "İ" lowercases
# to two code points.
tfidf_texts = st.text(alphabet="abAB !?.,'-\néßİΔ∞ж中😀", max_size=12)


@given(
    st.lists(st.tuples(st.sampled_from("xyz"), tfidf_texts), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=4),
)
@example([("x", ""), ("y", "a")], 1, 4)
@example([("x", "ab!"), ("y", "cd?"), ("x", "Ab ?")], 1, 0)
def test_tfidf_matches_naive_oracle(docs, n_min, span):
    n_max = min(n_min + span, 5)
    documents = [Document(doc_id, text) for doc_id, text in docs]
    reference = Corpus(documents)
    vectors = list(iter_feature_vectors(reference, n_min, n_max))
    ngrams = {doc_id: vector["char_ngram_tfidf"] for doc_id, vector in vectors}
    specials = {doc_id: vector["special_char_tfidf"] for doc_id, vector in vectors}
    expected_ngrams = oracle_tfidf(documents, oracle_ngrams(n_min, n_max))
    expected_specials = oracle_tfidf(documents, oracle_specials)
    assert ngrams == expected_ngrams and list(ngrams) == list(expected_ngrams)
    assert specials == expected_specials
    assert [doc_id for doc_id, _ in vectors] == list(expected_ngrams)


@given(
    st.lists(
        st.text(alphabet="abAB !.\néİΔж😀漢👨👩\u200d" + "".join(zwcodec.POINTS),
                max_size=12),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=7),
)
@example(["İ", "aİ", "", "abcab"], 1, 4)
@example(["İİ", "ab", "a"], 2, 0)
@example(["abcde", "abcdef", "abcd"], 5, 0)
@example(["", "ab", "👨\u200d👩\u200b"], 1, 7)
def test_folded_ngram_counts_match_direct_slicing(texts, n_min, span):
    # Only the n_max-grams are read, from zipped shifted views; shorter
    # levels are folded from prefixes.  Each level must count what slicing
    # it alone counts, for every 1 <= n_min <= n_max <= 8.  "İ" lowercases
    # to two code points, so the lowered text is longer than the drawn one.
    n_max = min(n_min + span, 8)
    reference = corpus(*texts)
    counts = _char_ngram_counts(reference, n_min, n_max)
    for document in reference.documents:
        t = document.text.lower()
        expected = Counter(
            t[i : i + n] for n in range(n_min, n_max + 1) for i in range(len(t) - n + 1)
        )
        assert counts[document.id] == dict(expected)
    assert feature("char_ngram_tfidf", reference, n_min, n_max) == oracle_tfidf(
        reference.documents, oracle_ngrams(n_min, n_max)
    )


def test_repeated_id_keeps_its_first_place_and_last_document():
    last = doc("The cat sat; the mat!", doc_id="a/1.txt")
    reference = Corpus([doc("of of of", doc_id="a/1.txt"), doc("b b", doc_id="b"), last])
    vectors = dict(iter_feature_vectors(reference, 1, 3))
    assert list(vectors) == ["a/1.txt", "b"]
    assert vectors["a/1.txt"]["function_word_freq"] == function_word_frequencies(last)
    assert vectors["a/1.txt"]["char_ngram_tfidf"] == oracle_tfidf(
        reference.documents, oracle_ngrams(1, 3)
    )["a/1.txt"]


def test_feature_iterator_checks_the_range_before_it_is_read():
    with pytest.raises(DataError, match=r"^invalid n-gram range \[3, 2\]$"):
        iter_feature_vectors(corpus("ab"), 3, 2)


# --- per-document features ---------------------------------------------------

def test_function_word_frequencies_hand_value():
    freqs = function_word_frequencies(doc("the the cat"))
    assert freqs["the"] == pytest.approx(2 / 3 * 1000)
    assert freqs["of"] == 0.0


def test_function_word_frequencies_no_stopwords():
    freqs = function_word_frequencies(doc("silver hammer"))
    assert all(v == 0.0 for v in freqs.values())


def test_function_word_frequencies_empty_document():
    freqs = function_word_frequencies(doc(""))
    assert all(v == 0.0 for v in freqs.values())


def test_bundled_function_word_list_has_175_entries():
    words = default_function_words()
    assert len(words) == 175
    assert len(set(words)) == 175
    assert "the" in words and "of" in words


def test_token_length_stats_two_tokens():
    avg, hist = token_length_stats(doc("aa bbb"))
    assert avg == pytest.approx(2.5)
    assert hist == {2: 0.5, 3: 0.5}


def test_token_length_stats_single_token():
    assert token_length_stats(doc("a")) == (1.0, {1: 1.0})


def test_token_length_stats_uniform():
    assert token_length_stats(doc("aa aa")) == (2.0, {2: 1.0})


def test_token_length_stats_empty():
    assert token_length_stats(doc("")) == (0.0, {})


def test_vocabulary_richness_hand_values():
    # "a a b": hapax {b}, dis {a} -> (1/1)/3
    assert vocabulary_richness(doc("a a b")) == pytest.approx(1 / 3)
    # "a b c": hapax 3, dis 0 -> denominator 1 -> (3/1)/3
    assert vocabulary_richness(doc("a b c")) == pytest.approx(1.0)
    assert vocabulary_richness(doc("")) == 0.0


@given(st.text(max_size=200))
def test_token_length_histogram_sums_to_one(text):
    _, hist = token_length_stats(doc(text))
    if hist:
        assert sum(hist.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(v >= 0 for v in hist.values())


#: Words for the bag properties: apostrophes, leading, trailing and doubled,
#: underscores, digits (superscript, fraction and Arabic-Indic among them),
#: Greek with a final capital sigma, Deseret, a combining accent, a dotted
#: capital I (two code points lowered), a ligature, CJK, a point inside a
#: word, and a function word or two.
BAG_WORDS = [
    "the", "The", "of", "AND", "a", "don't", "'tis", "O'NEIL's", "it's'",
    "rock''n", "''", "_", "snake_case", "_init_", "x1", "2024", "x\u00b2",
    "\u00bd", "\u0661\u0662\u0663", "cafe\u0301", "caf\u00e9", "\u0301",
    "\u039f\u0394\u039f\u03a3", "\u03bb\u03cc\u03b3\u03bf\u03c2", "\ufb01ne",
    "\U00010400\U00010401", "\u0130stanbul", "\u6f22\u5b57", "wo\u200brd", "--",
]
#: Where a split on whitespace and the token pattern could part: Python's
#: separators and U+180E, which is not one, apostrophes, ``_`` and each
#: payload point.
BAG_SEPARATORS = [
    " ", "\n", "'", "''", "_", ", ", "\xa0", "\x85", "\u1680", "\u2028",
    "\u3000", "\u180e", *sorted(zwcodec.POINTS),
]
bag_texts = st.one_of(
    st.lists(
        st.tuples(st.sampled_from(BAG_SEPARATORS), st.sampled_from(BAG_WORDS)),
        max_size=40,
    ).map(lambda pairs: "".join(sep + word for sep, word in pairs)),
    st.text(st.sampled_from(sorted(set("".join(BAG_WORDS + BAG_SEPARATORS)))),
            max_size=60),
    st.text(max_size=80),
)


def token_list_features(tokens):
    """The three per-document features from the token list, as earlier
    releases computed them."""
    words = default_function_words()
    if not tokens:
        return {w: 0.0 for w in words}, (0.0, {}), 0.0
    counts = Counter(tokens)
    scale = 1000.0 / len(tokens)
    frequencies = {w: counts.get(w, 0) * scale for w in words}
    lengths = Counter(map(len, tokens))
    histogram = {n: c / len(tokens) for n, c in sorted(lengths.items())}
    avg = sum(n * c for n, c in lengths.items()) / len(tokens)
    hapax = sum(1 for c in counts.values() if c == 1)
    dis = sum(1 for c in counts.values() if c == 2)
    return frequencies, (avg, histogram), (hapax / (dis or 1)) / len(tokens)


@given(bag_texts)
def test_a_documents_bag_counts_its_tokens_once(text):
    document = doc(text)
    bag = document.counts()
    assert bag == _count_words(text) == Counter(tokenize(text))
    assert document.counts() is bag


@given(bag_texts)
def test_per_document_features_equal_their_token_list_definitions(text):
    document = doc(text)
    got = (
        function_word_frequencies(document),
        token_length_stats(document),
        vocabulary_richness(document),
    )
    # repr tells every float apart, -0.0 included, and shows every key order
    assert repr(got) == repr(token_list_features(tokenize(text)))


def test_a_documents_text_cannot_change_so_neither_can_its_bag():
    document = doc("the cat sat", "amy")
    bag = document.counts()
    with pytest.raises(AttributeError):
        document.text = "a dog ran far"
    assert document.text == "the cat sat"
    assert document.counts() is bag
    assert bag == Counter(tokenize("the cat sat"))


@given(bag_texts, st.data())
def test_a_clean_document_is_its_own_stripped_copy(text, data):
    text = zwcodec.strip_zero_width(text)[0]  # a bag text may hold a point
    clean = doc(text, "amy")
    bag = clean.counts()
    assert clean.stripped() is clean
    assert clean.stripped().counts() is bag
    points = data.draw(st.lists(st.sampled_from(sorted(zwcodec.POINTS)), min_size=1))
    for point in points:
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + point + text[at:]
    held = doc(text, "amy")
    stripped = held.stripped()
    assert stripped is not held
    assert stripped == clean
    assert stripped.counts() == Counter(tokenize(zwcodec.strip_zero_width(text)[0]))


# --- Burrows' Delta ----------------------------------------------------------

def two_author_reference():
    return Corpus(
        [
            doc("the cat sat on the mat and the dog sat too", "amy", "a1"),
            doc("the mouse ran and the cat ran after it quickly", "amy", "a2"),
            doc("you should not go there but you did go anyway", "ben", "b1"),
            doc("but you never said it was not so you argued", "ben", "b2"),
        ]
    )


def test_delta_self_match_is_zero():
    ref = two_author_reference()
    merged = " ".join(d.text for d in ref.documents if d.author == "amy")
    report = delta(ref, doc(merged), k=10)
    assert report.deltas["amy"] == 0.0


def test_delta_matches_brute_force_oracle():
    ref = two_author_reference()
    candidate = doc("the cat and the dog sat on the mat again")
    words = default_function_words()
    report = delta(ref, candidate, k=10)
    expected = oracle_burrows_delta(
        {
            "amy": [tokenize(d.text) for d in ref.documents if d.author == "amy"],
            "ben": [tokenize(d.text) for d in ref.documents if d.author == "ben"],
        },
        tokenize(candidate.text),
        10,
        words,
    )
    for author in expected:
        assert report.deltas[author] == pytest.approx(expected[author], abs=1e-9)


def test_delta_invariant_under_document_duplication():
    ref = two_author_reference()
    candidate = doc("the cat and you")
    report = delta(ref, candidate, k=10)
    doubled = Corpus(
        ref.documents
        + [Document(id=d.id + "+", text=d.text, author=d.author) for d in ref.documents]
    )
    report2 = delta(doubled, candidate, k=10)
    for author in report.deltas:
        assert report2.deltas[author] == pytest.approx(report.deltas[author], abs=1e-12)
    argmin = min(report.deltas, key=report.deltas.get)
    assert argmin == min(report2.deltas, key=report2.deltas.get)


def test_delta_requires_labeled_multi_document_reference():
    with pytest.raises(InsufficientCorpus):
        delta(Corpus([doc("just one", "amy")]), doc("x"))
    with pytest.raises(InsufficientCorpus):
        delta(corpus("a b", "c d"), doc("x"))  # unlabeled
    with pytest.raises(InsufficientCorpus):
        # identical docs: zero variance everywhere
        delta(
            Corpus([doc("the end", "amy", "a1"), doc("the end", "amy", "a2")]),
            doc("the end"),
        )


def test_word_every_document_shares_leaves_the_axis():
    # "the" is 4 in 15 tokens everywhere, but the left-to-right mean of ten
    # such frequencies rounds, so its computed std is ~5.7e-14, not 0.0
    documents = [
        doc(
            "the cat dog " * 4 + ("of of a " if i < 5 else "a a a "),
            "alice" if i < 5 else "bob",
            f"d{i}",
        )
        for i in range(10)
    ]
    candidate = doc("the of of a cat dog")
    report = delta(Corpus(documents), candidate)
    assert report.function_words_used == ["a", "of"]
    assert report.deltas["alice"] == pytest.approx(2.25, abs=1e-9)
    assert report.deltas["bob"] == pytest.approx(2.75, abs=1e-9)
    expected = oracle_burrows_delta(
        {
            "alice": [tokenize(d.text) for d in documents[:5]],
            "bob": [tokenize(d.text) for d in documents[5:]],
        },
        tokenize(candidate.text),
        50,
        default_function_words(),
    )
    assert report.deltas == pytest.approx(expected, abs=1e-9)


def _counter_fit(reference, k):
    """Delta's fit as earlier releases computed it: one Counter per text,
    vocabularies merged with ``Counter.update`` and each author's documents
    joined and counted again.  Its axis rule is the current one."""

    def per_1000(counts, total, word):
        return counts.get(word, 0) * 1000.0 / total if total else 0.0

    def z_profile(tokens, words, means, stds):
        counts = Counter(tokens)
        return tuple(
            (per_1000(counts, len(tokens), w) - mean) / std
            for w, mean, std in zip(words, means, stds)
        )

    doc_tokens = [tokenize(d.text) for d in reference.documents]
    doc_counts = [Counter(tokens) for tokens in doc_tokens]
    total_counts = Counter()
    for counts in doc_counts:
        total_counts.update(counts)
    ranked = sorted(
        default_function_words(), key=lambda w: (-total_counts.get(w, 0), w)
    )
    n_docs = len(doc_tokens)
    kept, means, stds = [], [], []
    for w in ranked[:k]:
        freqs = [
            per_1000(counts, len(tokens), w)
            for counts, tokens in zip(doc_counts, doc_tokens)
        ]
        if min(freqs) == max(freqs):
            continue
        mean = _sum_left(freqs) / n_docs
        std = math.sqrt(_sum_left((f - mean) * (f - mean) for f in freqs) / n_docs)
        kept.append(w)
        means.append(mean)
        stds.append(std)
    if not kept:
        return None, z_profile
    grouped = {}
    for d in reference.documents:
        grouped.setdefault(d.author, []).append(d)
    author_z = {
        author: z_profile(
            [t for d in docs for t in tokenize(d.text)], kept, means, stds
        )
        for author, docs in sorted(grouped.items())
    }
    return (tuple(kept), tuple(means), tuple(stds), author_z), z_profile


DELTA_VOCABULARY = ["the", "of", "and", "a", "to", "you", "it", "cat", "dog", "ran"]
delta_texts = st.lists(st.sampled_from(DELTA_VOCABULARY), max_size=30).map(" ".join)


@given(
    st.lists(st.lists(delta_texts, min_size=1, max_size=4), min_size=2, max_size=3),
    delta_texts,
    st.integers(min_value=1, max_value=200),
)
@example([["the the of", "the of"], ["", "a"]], "the of a", 200)
def test_fit_matches_the_counter_fit_float_for_float(authors, candidate_text, k):
    reference = Corpus(
        [
            doc(text, f"author{a}", f"author{a}/{n}.txt")
            for a, texts in enumerate(authors)
            for n, text in enumerate(texts)
        ]
    )
    expected, z_profile = _counter_fit(reference, k)
    if expected is None:
        with pytest.raises(InsufficientCorpus):
            fit_delta_reference(reference, k)
        return
    fitted = fit_delta_reference(reference, k)
    # repr tells every float apart, -0.0 included, and shows every key order
    assert repr(tuple(fitted)) == repr(expected)
    candidate = doc(candidate_text)
    cand_z = z_profile(tokenize(candidate.text), *expected[:3])
    deltas = {
        author: _sum_left(abs(a - c) for a, c in zip(author_z, cand_z)) / len(cand_z)
        for author, author_z in expected[3].items()
    }
    assert repr(score_delta(fitted, candidate).deltas) == repr(deltas)


def test_delta_rejects_bad_k():
    with pytest.raises(ValueError):
        delta(two_author_reference(), doc("x"), k=0)


def test_documents_compare_by_id_text_and_author_and_a_corpus_is_unhashable():
    cached = doc("the cat", "amy", "d")
    cached.counts()
    assert cached == doc("the cat", "amy", "d")
    assert cached != doc("the cat", "bob", "d")
    assert Corpus([cached]) == Corpus([doc("the cat", "amy", "d")])
    assert repr(cached) == "Document(id='d', text='the cat', author='amy')"
    with pytest.raises(TypeError):
        hash(Corpus([cached]))


def test_delta_report_fields():
    report = delta(two_author_reference(), doc("the cat"), k=5)
    assert list(report._fields) == ["deltas", "probabilities", "function_words_used"]
    assert sum(report.probabilities.values()) == pytest.approx(1.0, abs=1e-9)


# --- probabilities -----------------------------------------------------------

def test_delta_sums_add_left_to_right_on_every_python():
    # A compensated sum, as ``sum()`` is from Python 3.12 on, gives 1.0 here.
    values = [1e16, 1.0, -1e16]
    assert math.fsum(values) == 1.0
    assert _sum_left(values) == 0.0


def test_probabilities_single_author():
    assert author_probabilities({"solo": 3.2}) == {"solo": 1.0}


def test_probabilities_equal_deltas_split_evenly():
    probs = author_probabilities({"a": 1.5, "b": 1.5})
    assert probs["a"] == pytest.approx(0.5)
    assert probs["b"] == pytest.approx(0.5)


def test_probabilities_softmax_hand_value():
    # softmax(-1, -2) computed by hand
    e1, e2 = math.exp(-1.0), math.exp(-2.0)
    probs = author_probabilities({"a": 1.0, "b": 2.0})
    assert probs["a"] == pytest.approx(e1 / (e1 + e2), abs=1e-9)
    assert probs["b"] == pytest.approx(e2 / (e1 + e2), abs=1e-9)
    assert probs["a"] == pytest.approx(0.7311, abs=1e-4)
    assert probs["b"] == pytest.approx(0.2689, abs=1e-4)


def test_probabilities_reject_non_finite():
    with pytest.raises(ValueError):
        author_probabilities({"a": float("nan")})
    with pytest.raises(ValueError):
        author_probabilities({})


@given(
    st.dictionaries(
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4),
        st.floats(min_value=0, max_value=50, allow_nan=False),
        min_size=1,
        max_size=6,
    )
)
def test_probability_delta_consistency(deltas):
    probs = author_probabilities(deltas)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
    # any delta-argmin author attains the maximal probability (ties share it)
    argmin = min(deltas, key=deltas.get)
    assert probs[argmin] == max(probs.values())


# --- zero-width blindness toggle ----------------------------------------------

def test_feature_vectors_see_payload_unless_stripped():
    clean = "the quiet house stood near the old road"
    stego = zwcodec.encode_message("HI")
    contaminated = clean[:3] + stego + clean[3:]
    helper = "another document to give idf something to count"
    dirty = Corpus([doc(contaminated, doc_id="t"), doc(helper, doc_id="h")])
    clean_corpus = Corpus([doc(clean, doc_id="t"), doc(helper, doc_id="h")])

    raw_dirty = dict(iter_feature_vectors(dirty))["t"]
    raw_clean = dict(iter_feature_vectors(clean_corpus))["t"]
    assert raw_dirty != raw_clean

    stripped_dirty = dict(iter_feature_vectors(dirty.stripped()))["t"]
    stripped_clean = dict(iter_feature_vectors(clean_corpus.stripped()))["t"]
    assert stripped_dirty == stripped_clean


def test_delta_strip_toggle_restores_original_scores():
    ref = two_author_reference()
    original = doc("the cat sat and you ran but the dog stayed")
    # payload lands inside the first word, splitting "the" for the tokenizer
    stego_text = original.text[:2] + zwcodec.encode_message("SECRET") + original.text[2:]
    raw = delta(ref, doc(stego_text), k=10)
    stripped = delta(ref, doc(stego_text).stripped(), k=10)
    baseline = delta(ref, original, k=10)
    assert stripped.deltas == baseline.deltas
    assert raw.deltas != baseline.deltas


# --- writers -----------------------------------------------------------------

#: Small corpora for the writer: empty and token-free texts, non-ASCII
#: n-grams, repeated ids and an id decoded from a non-UTF-8 file name.
FEATURE_CORPORA = st.lists(
    st.tuples(
        st.sampled_from(["a/1.txt", "a/2.txt", "b\udcff/1.txt", "\u00e9/\u0436.txt"]),
        st.text(alphabet="ab AB.,!?'\n\u00e9\u0394\u0436\u6f22\U0001F600\u200b",
                max_size=30),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(docs=FEATURE_CORPORA, n_min=st.integers(1, 3), span=st.integers(0, 2))
def test_feature_json_is_the_bytes_of_json_dumps(docs, n_min, span):
    corpus = Corpus([Document(i, text) for i, text in docs])
    for doc_id, vector in iter_feature_vectors(corpus, n_min, n_min + span):
        expected = json.dumps(doc_id) + ": " + json.dumps(vector, sort_keys=True)
        assert _feature_json(doc_id, vector) == expected


# Two distinct values in a small corpus's vector almost never agree to six
# decimals, so a repr cache keyed too coarsely can pass the test above:
# vectors of the same shape are also drawn directly.
FEATURE_FLOATS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
FEATURE_KEYS = st.text(
    alphabet=st.characters() | st.sampled_from(["\udc80", "\udcff"]), max_size=4
)


@given(
    doc_id=FEATURE_KEYS,
    vector=st.dictionaries(
        FEATURE_KEYS,
        FEATURE_FLOATS | st.dictionaries(FEATURE_KEYS, FEATURE_FLOATS, max_size=8),
        max_size=6,
    ),
)
def test_feature_json_writes_any_vector_of_the_feature_shape(doc_id, vector):
    expected = json.dumps(doc_id) + ": " + json.dumps(vector, sort_keys=True)
    assert _feature_json(doc_id, vector) == expected


@pytest.mark.parametrize(
    "vector, error",
    [
        ({"x": 1}, TypeError),
        ({"x": True}, TypeError),
        ({"x": [1.0]}, TypeError),
        ({"x": 1.0, "y": {"a": 1}}, TypeError),
        ({"x": {1: 0.5}}, TypeError),
        ({"x": math.nan}, ValueError),
        ({"x": {"a": math.inf}}, ValueError),
        ({"x": {"a": -1.5}}, ValueError),
        ({"x": -0.0}, ValueError),
    ],
)
def test_feature_json_refuses_a_value_no_feature_has(vector, error):
    with pytest.raises(error):
        _feature_json("d", vector)


def test_a_markdown_cell_escapes_its_bars_and_csv_keeps_them():
    columns = [("author", "Author", ""), ("delta", "Delta", ".1f")]
    records = [{"author": a, "delta": 0.5} for a in ("a|b", "a\nb", "c\r\nd", "e\rf")]
    assert render_table("markdown", columns, records) == (
        "| Author | Delta |\n|---|---|\n| a\\|b | 0.5 |\n"
        "| a<br>b | 0.5 |\n| c<br>d | 0.5 |\n| e<br>f | 0.5 |\n"
    )
    # csv quotes a field that holds a line break, a lone CR included.
    assert render_table("csv", columns, records) == (
        'author,delta\na|b,0.5\n"a\nb",0.5\n"c\r\nd",0.5\n"e\rf",0.5\n'
    )


def test_a_csv_table_reads_back_through_csv_reader():
    import csv
    import io

    labels = ["e\rf", "a\nb", "c\r\nd", "x,y", 'q"r', "plain", "a|b", ""]
    columns = [("author", "Author", ""), ("delta", "Delta", ".4f")]
    records = [{"author": label, "delta": 0.5} for label in labels]
    text = render_table("csv", columns, records)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows == [["author", "delta"], *([label, "0.5000"] for label in labels)]
    # A cell with none of CR, LF, "," or a quote is written as is.
    assert "\nplain,0.5000\na|b,0.5000\n,0.5000\n" in text


# --- corpus loading ----------------------------------------------------------

def test_load_corpus_directory_layout(tmp_path):
    (tmp_path / "amy").mkdir()
    (tmp_path / "ben").mkdir()
    (tmp_path / "amy" / "one.txt").write_text("the cat", encoding="utf-8")
    (tmp_path / "amy" / "two.txt").write_text("a dog", encoding="utf-8")
    (tmp_path / "ben" / "one.txt").write_text("you ran", encoding="utf-8")
    loaded = load_corpus(tmp_path)
    assert loaded.authors == ["amy", "ben"]
    assert [d.id for d in loaded.documents] == [
        "amy/one.txt",
        "amy/two.txt",
        "ben/one.txt",
    ]


def test_load_corpus_keeps_crlf(tmp_path):
    (tmp_path / "amy").mkdir()
    (tmp_path / "amy" / "one.txt").write_bytes(b"the cat\r\nsat down\r\n")
    (tmp_path / "amy" / "two.txt").write_bytes(b"a dog\n")
    loaded = load_corpus(tmp_path)
    assert loaded.documents[0].text == "the cat\r\nsat down\r\n"


def test_load_corpus_empty_directory(tmp_path):
    with pytest.raises(InsufficientCorpus):
        load_corpus(tmp_path)


def test_corpus_hash_tracks_content(tmp_path):
    c1 = corpus("alpha", "beta")
    c2 = corpus("alpha", "beta")
    c3 = corpus("alpha", "gamma")
    assert c1.content_hash() == c2.content_hash()
    assert c1.content_hash() != c3.content_hash()


def test_corpus_hash_reads_an_id_from_a_non_utf8_name_as_its_bytes():
    # load_corpus makes ids from file names, which decode with surrogateescape
    raw_id = b"amy/b\xff.txt"
    hashed = Corpus([doc("alpha", "amy", raw_id.decode("utf-8", "surrogateescape"))])
    expected = hashlib.sha256(raw_id + b"\x00alpha\x00").hexdigest()
    assert hashed.content_hash() == expected
    plain = Corpus([doc("alpha", "amy", "amy/b\u00ff.txt")])
    expected = hashlib.sha256("amy/b\u00ff.txt\x00alpha\x00".encode("utf-8"))
    assert plain.content_hash() == expected.hexdigest()


# --- randomized oracle equivalence (the desk-scale version lives in
# --- test_acceptance; this is a quick smoke variant) ---------------------------

def test_delta_oracle_equivalence_randomized_smoke():
    rng = random.Random(7)
    vocabulary = ["the", "of", "and", "you", "it", "cat", "dog", "run", "sat", "big"]
    words = default_function_words()
    for _ in range(20):
        n_authors = rng.randint(1, 3)
        author_docs = {}
        documents = []
        for a in range(n_authors):
            name = f"auth{a}"
            docs = []
            for d in range(rng.randint(1, 3)):
                tokens = [rng.choice(vocabulary) for _ in range(rng.randint(1, 50))]
                docs.append(tokens)
                documents.append(
                    Document(id=f"{name}/{d}", text=" ".join(tokens), author=name)
                )
            author_docs[name] = docs
        if len(documents) < 2:
            continue
        candidate_tokens = [rng.choice(vocabulary) for _ in range(rng.randint(1, 50))]
        expected = oracle_burrows_delta(author_docs, candidate_tokens, 8, words)
        ref = Corpus(documents)
        cand = Document(id="cand", text=" ".join(candidate_tokens))
        if expected is None:
            with pytest.raises(InsufficientCorpus):
                delta(ref, cand, k=8)
            continue
        report = delta(ref, cand, k=8)
        for author, value in expected.items():
            assert report.deltas[author] == pytest.approx(value, abs=1e-9)
