import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylocloak import synthcorpus
from stylocloak.synthcorpus import (
    STYLE_A,
    STYLE_B,
    AuthorStyle,
    _content_pool,
    make_sentence,
    make_text,
)


def sentence_with_choices(style, rng):
    """The reference sentence: ``randint``, ``random`` and ``choice`` draws."""
    content = _content_pool(style.content_offset)
    count = rng.randint(style.min_words, style.max_words)
    words = []
    for _ in range(count):
        roll = rng.random()
        if roll < style.function_rate:
            words.append(rng.choice(style.connectors))
        elif roll < style.function_rate + style.adverb_rate:
            words.append(rng.choice(style.adverbs))
        else:
            words.append(rng.choice(content))
    if count >= 6 and rng.random() < style.comma_rate:
        cut = rng.randint(2, count - 2)
        words[cut] = words[cut] + ","
    sentence = " ".join(words)
    return sentence[0].upper() + sentence[1:] + rng.choice(style.terminators)


def assert_draws_like_reference(style, seed, sentences):
    """Same sentences, and the same generator state after each one, so that
    no draw is skipped or added."""
    rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(sentences):
        assert make_sentence(style, rng) == sentence_with_choices(style, reference)
        assert rng.getstate() == reference.getstate()


def pool(size):
    return tuple(f"w{i}" for i in range(size))


# Pool sizes at the edges of the rejection loop: one word (one bit drawn,
# half the draws rejected), powers of two (none rejected), one past them
# (a quarter to nearly half rejected) and the content pool's 150.
POOL_SIZES = st.sampled_from((1, 2, 3, 8, 9, 150))
# max_words - min_words + 1 as a power of two, or one past it.
SPANS = st.sampled_from((1, 2, 4, 8, 16, 32, 3, 5, 9, 17))
RATES = st.floats(min_value=0.0, max_value=1.0)

styles = st.builds(
    lambda connectors, adverbs, offset, low, span, terminators, rates: AuthorStyle(
        name="probe",
        connectors=pool(connectors),
        adverbs=pool(adverbs),
        content_offset=offset,
        min_words=low,
        max_words=low + span - 1,
        terminators=".!?;:-~,"[:terminators],
        comma_rate=rates[0],
        function_rate=rates[1],
        adverb_rate=rates[2],
    ),
    POOL_SIZES,
    POOL_SIZES,
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=8),
    SPANS,
    st.sampled_from((1, 2, 3, 4, 8)),
    st.tuples(RATES, RATES, RATES),
)
seeds = st.integers(min_value=0, max_value=2**64)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((STYLE_A, STYLE_B)), seeds)
def test_bundled_styles_draw_like_randint_and_choice(style, seed):
    assert_draws_like_reference(style, seed, sentences=5)


@settings(max_examples=150, deadline=None)
@given(styles, seeds)
def test_any_style_draws_like_randint_and_choice(style, seed):
    assert_draws_like_reference(style, seed, sentences=3)


def test_empty_pool_fails_only_when_drawn_from_as_choice_does():
    no_adverbs = STYLE_B._replace(adverbs=(), adverb_rate=0.0)
    assert_draws_like_reference(no_adverbs, seed=4, sentences=20)
    for broken in (STYLE_B._replace(terminators=""), STYLE_B._replace(connectors=())):
        with pytest.raises(IndexError):
            sentence_with_choices(broken, random.Random(4))
        with pytest.raises(IndexError):
            make_sentence(broken, random.Random(4))


def test_empty_word_count_range_fails_as_randint_does():
    inverted = STYLE_A._replace(min_words=9, max_words=8)
    with pytest.raises(ValueError):
        sentence_with_choices(inverted, random.Random(0))
    with pytest.raises(ValueError):
        make_sentence(inverted, random.Random(0))


@pytest.mark.parametrize("style", [STYLE_A, STYLE_B], ids=lambda s: s.name)
def test_make_text_is_the_text_of_the_reference_sentences(style):
    for seed in (0, 1, 999_983):
        text = make_text(style, seed, 3000)
        with mock.patch.object(synthcorpus, "make_sentence", sentence_with_choices):
            assert make_text(style, seed, 3000) == text
