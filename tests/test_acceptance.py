"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on a green run; on failure the offending assertion carries the same
text.  Criteria 5 and 8 run at desk scale against deterministic synthetic
authors (see stylocloak.synthcorpus) since no real corpus is bundled.
"""

import json
import random
import string
import time

import pytest

from oracle_delta import oracle_burrows_delta
from oracle_lines import carrier_lines
from stylocloak import pipeline, styloscope, synthcorpus, weaver, zwcodec
from stylocloak.pipeline import PipelineConfig, emit_report, run_matrix
from stylocloak.styloscope import (
    Corpus,
    Document,
    InsufficientCorpus,
    author_probabilities,
    default_function_words,
    fit_delta_reference,
    iter_feature_vectors,
    score_delta,
)
from stylocloak.synthcorpus import STYLE_A, STYLE_B, candidate_for, two_author_corpus
from stylocloak.weaver import embed_linewise, weave_into_unigram
from stylocloak.zwcodec import (
    BIT0,
    BIT1,
    END,
    SEP,
    decode_stream,
    encode_message,
    scan_text,
    strip_zero_width,
)

pytestmark = pytest.mark.filterwarnings("ignore::stylocloak.weaver.SecretOverflow")

SAFE_COVER_CHARS = (
    string.ascii_letters + string.digits + string.punctuation + " \t" + "äöüéçñ–“”"
)


def _verdict(number: int, description: str, passed: bool):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d}: {description}")
    assert passed, f"criterion {number}: {description}"


def _random_cover_word(rng: random.Random) -> str:
    chars = string.ascii_letters + string.digits + string.punctuation + "äöüéçñ"
    return "".join(rng.choice(chars) for _ in range(rng.randint(1, 12)))


def test_criterion_01_codec_round_trip_speed():
    rng = random.Random(101)
    messages = [
        "".join(rng.choice(string.ascii_uppercase) for _ in range(rng.randint(0, 512)))
        for _ in range(1000)
    ]
    started = time.perf_counter()
    ok = all(decode_stream(encode_message(m)) == m for m in messages)
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        f"1000 random A-Z messages (len 0-512) round-trip exactly in {elapsed:.3f}s (< 1s)",
        ok and elapsed < 1.0,
    )


def test_criterion_02_invisibility_invariant():
    rng = random.Random(202)
    failures = 0
    for trial in range(100):  # 100 weave pairs
        word = _random_cover_word(rng)
        payload = encode_message(
            "".join(rng.choice(string.ascii_uppercase) for _ in range(rng.randint(0, 8)))
        )
        strategy = rng.choice(weaver.STRATEGIES)
        woven = weave_into_unigram(word, payload, strategy)
        clean, extracted = strip_zero_width(woven)
        if clean != word or extracted != payload:
            failures += 1
    for trial in range(100):  # 100 line-wise pairs
        lines = [
            " ".join(_random_cover_word(rng) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(0, 6))
        ]
        secret = "".join(
            rng.choice(string.ascii_uppercase) for _ in range(rng.randint(0, 8))
        )
        out, _ = embed_linewise("\n".join(lines), secret)
        if [strip_zero_width(l)[0] for l in carrier_lines(out)] != lines:
            failures += 1
    _verdict(
        2,
        f"strip(embedded).clean byte-identical to cover for 200 pairs ({failures} failures)",
        failures == 0,
    )


def test_criterion_03_linewise_conformance_exhaustive():
    bad = []
    for n_secret in range(6):
        for n_lines in range(6):
            secret = string.ascii_uppercase[:n_secret]
            lines = [f"line{i} word tail" for i in range(n_lines)]
            out, dropped = embed_linewise("\n".join(lines), secret)
            out = carrier_lines(out)
            modified = sum(1 for before, after in zip(lines, out) if before != after)
            expected = min(n_secret, n_lines)
            trailing_ok = out[expected:] == lines[expected:]
            dropped_ok = dropped == max(0, n_secret - n_lines)
            if (
                modified != expected
                or not trailing_ok
                or len(out) != len(lines)
                or not dropped_ok
            ):
                bad.append((n_secret, n_lines))
    _verdict(
        3,
        f"all 36 (|secret|, |lines|) cases modify exactly min(|secret|, |lines|) lines "
        f"and drop max(0, |secret| - |lines|) letters ({len(bad)} deviations)",
        not bad,
    )


def test_criterion_04_delta_oracle_equivalence():
    rng = random.Random(404)
    words = default_function_words()
    vocabulary = [
        "the", "of", "and", "a", "you", "it", "in", "to", "not", "so",
        "cat", "dog", "run", "sat", "big", "cold", "tree", "stone", "walk", "fast",
    ]
    trials = mismatches = 0
    while trials < 100:
        author_docs = {}
        documents = []
        for a in range(rng.randint(1, 3)):
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
        trials += 1
        candidate_tokens = [rng.choice(vocabulary) for _ in range(rng.randint(1, 50))]
        candidate = Document(id="cand", text=" ".join(candidate_tokens))
        expected = oracle_burrows_delta(author_docs, candidate_tokens, 12, words)
        if expected is None:
            try:
                score_delta(fit_delta_reference(Corpus(documents), 12), candidate)
                mismatches += 1
            except InsufficientCorpus:
                pass
            continue
        report = score_delta(fit_delta_reference(Corpus(documents), 12), candidate)
        for author, value in expected.items():
            if abs(report.deltas[author] - value) > 1e-9:
                mismatches += 1
    _verdict(
        4,
        f"module Delta matches brute-force oracle within 1e-9 over 100 random corpora "
        f"({mismatches} mismatches)",
        mismatches == 0,
    )


def test_criterion_05_delta_discrimination_at_desk_scale():
    wins = {STYLE_A.name: 0, STYLE_B.name: 0}
    for split in range(10):
        reference = two_author_corpus(seed=split, n_docs=8, chars_per_doc=6250)
        for style, other in ((STYLE_A, STYLE_B), (STYLE_B, STYLE_A)):
            candidate = candidate_for(style, seed=split, n_chars=5000)
            report = score_delta(fit_delta_reference(reference, 50), candidate)
            if report.deltas[style.name] < report.deltas[other.name]:
                wins[style.name] += 1
    _verdict(
        5,
        "same-author Delta < cross-author Delta in >= 9/10 splits per author "
        f"(two ~50KB authors, 5KB candidates; wins: {wins})",
        all(w >= 9 for w in wins.values()),
    )


def test_criterion_06_steganography_only_neutrality():
    reference = two_author_corpus(seed=1, n_docs=4, chars_per_doc=3000)
    candidate = candidate_for(STYLE_A, seed=1, n_chars=3000)
    config = PipelineConfig(id=8, seed=7, payload="HIDDENPAYLOAD")
    stego_text = pipeline.apply_config(candidate.text, config)
    assert stego_text != candidate.text

    fitted = fit_delta_reference(reference, 50)
    baseline = score_delta(fitted, candidate)
    stripped = score_delta(fitted, Document(id="stego", text=stego_text).stripped())
    neutral = all(
        abs(stripped.deltas[a] - baseline.deltas[a]) <= 1e-12 for a in baseline.deltas
    )

    helper = Document(id="helper", text=candidate_for(STYLE_B, seed=2).text)
    raw_vectors = dict(
        iter_feature_vectors(Corpus([Document(id="probe", text=stego_text), helper]))
    )
    clean_vectors = dict(
        iter_feature_vectors(
            Corpus([Document(id="probe", text=candidate.text), helper])
        )
    )
    registers = raw_vectors["probe"] != clean_vectors["probe"]
    _verdict(
        6,
        "stripped stego Delta equals original to 1e-12 and raw feature vectors "
        "register the payload",
        neutral and registers,
    )


def _desk_matrix():
    reference = two_author_corpus(seed=4, n_docs=8, chars_per_doc=6250)
    candidate = candidate_for(STYLE_A, seed=4, n_chars=5000)
    configs = [
        PipelineConfig(id=i, seed=1234, payload="MEETATDAWN") for i in range(1, 16)
    ]
    return candidate, reference, configs


def test_criterion_07_matrix_reproducibility():
    candidate, reference, configs = _desk_matrix()
    first = run_matrix(candidate, reference, configs, k=50)
    second = run_matrix(candidate, reference, configs, k=50)
    bytes_equal = emit_report(first, "json") == emit_report(second, "json")

    cells = {(row.config, row.author) for row in first.rows}
    expected_cells = {(c.id, a) for c in configs for a in reference.authors}
    shape_ok = cells == expected_cells and len(first.rows) == len(expected_cells)

    constant_reference = all(
        len({r.delta_reference for r in first.rows if r.author == author}) == 1
        for author in reference.authors
    )
    _verdict(
        7,
        "two matrix runs byte-identical; one row per (config, author); "
        "reference-delta column constant per author",
        bytes_equal and shape_ok and constant_reference and not first.errors,
    )


def test_criterion_08_obfuscation_effect_direction():
    reference = two_author_corpus(seed=4, n_docs=8, chars_per_doc=6250)
    candidate = candidate_for(STYLE_A, seed=4, n_chars=5000)
    fitted = fit_delta_reference(reference, 50)
    baseline = score_delta(fitted, candidate).deltas[STYLE_A.name]

    nonzero = 0
    arithmetic_exact = True
    for seed in range(10):
        config = PipelineConfig(id=3, seed=seed)
        report = run_matrix(candidate, reference, [config], k=50)
        row = next(r for r in report.rows if r.author == STYLE_A.name)
        if row.delta_adversarial != baseline:
            nonzero += 1
        if row.delta_change != row.delta_reference - row.delta_adversarial:
            arithmetic_exact = False
    _verdict(
        8,
        f"obfuscation-only config changed same-author Delta in {nonzero}/10 seeds "
        "(need >= 7) and delta_change column is exact",
        nonzero >= 7 and arithmetic_exact,
    )


def test_criterion_09_probability_contract():
    candidate, reference, configs = _desk_matrix()
    report = run_matrix(candidate, reference, configs[:5], k=50)
    ok = True
    for config in {r.config for r in report.rows}:
        rows = [r for r in report.rows if r.config == config]
        for column in ("probability_adversarial", "probability_reference"):
            total = sum(getattr(r, column) for r in rows)
            ok &= abs(total - 1.0) <= 1e-9
        best_prob = max(rows, key=lambda r: r.probability_adversarial)
        ok &= best_prob.delta_adversarial == min(r.delta_adversarial for r in rows)

    rng = random.Random(909)
    for _ in range(200):
        deltas = {
            f"a{i}": rng.uniform(0, 10) for i in range(rng.randint(1, 6))
        }
        probs = author_probabilities(deltas)
        ok &= abs(sum(probs.values()) - 1.0) <= 1e-9
        argmin = min(deltas, key=deltas.get)
        ok &= probs[argmin] == max(probs.values())
    _verdict(
        9,
        "probabilities sum to 1 +/- 1e-9 and argmax(probability) = argmin(delta) "
        "in every report",
        ok,
    )


def test_criterion_10_scanner_soundness():
    rng = random.Random(1010)
    sound = True
    for _ in range(500):
        base = "".join(
            rng.choice(SAFE_COVER_CHARS) for _ in range(rng.randint(0, 120))
        )
        if rng.random() < 0.5:
            pos = rng.randint(0, len(base))
            noise = "".join(
                rng.choice((BIT0, BIT1, SEP, END)) for _ in range(rng.randint(1, 6))
            )
            doc = base[:pos] + noise + base[pos:]
        else:
            doc = base
        report = scan_text(doc)
        _, extracted = strip_zero_width(doc)
        sound &= report.verdict == (len(extracted) > 0)

    megabyte = "".join(
        rng.choice(SAFE_COVER_CHARS) for _ in range(1_000_000)
    )
    false_positive = scan_text(megabyte).verdict
    _verdict(
        10,
        "scan verdict == strip non-emptiness on 500 mixed docs; zero false "
        "positives on 1MB clean corpus",
        sound and not false_positive,
    )
