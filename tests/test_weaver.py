import re
import string

import pytest
import regex
from hypothesis import given
from hypothesis import strategies as st

from oracle_lines import carrier_lines
from stylocloak import DataError, pipeline, weaver, zwcodec
from stylocloak.zwcodec import BIT0, BIT1, END, SEP, MalformedStream, strip_zero_width
from stylocloak.weaver import (
    SecretOverflow,
    embed_linewise,
    embed_into_text,
    extract_from_text,
    secret_units,
    weave_into_unigram,
)

# carrier text must be clean of the four payload code points
clean_char = st.characters(
    blacklist_characters=BIT0 + BIT1 + SEP + END, blacklist_categories=("Cs",)
)
clean_word = st.text(alphabet=clean_char, min_size=1, max_size=12).filter(
    lambda w: w.strip() == w and w
)
# one carrier line: only LF ends a line, so a line holds none
clean_line = clean_word.filter(lambda w: "\n" not in w)
payloads = st.text(alphabet=st.sampled_from(BIT0 + BIT1 + SEP), max_size=20).map(
    lambda body: body + END
)
secrets = st.text(alphabet=string.ascii_uppercase, max_size=8)

# property tests legitimately overflow short carriers; explicit overflow
# behavior is asserted separately
pytestmark = pytest.mark.filterwarnings(
    "ignore::stylocloak.weaver.SecretOverflow"
)


def test_weave_single_gap():
    woven = weave_into_unigram("a", END)
    assert woven == "a" + END


def test_weave_cycles_gaps_left_to_right():
    woven = weave_into_unigram("ab", BIT0 + END)
    assert woven == "a" + BIT0 + "b" + END


def test_weave_uneven_payload_gives_earlier_gaps_extra():
    # 3 units over 2 gaps -> runs of 2 and 1, reading order preserved
    woven = weave_into_unigram("ab", BIT0 + BIT1 + END)
    assert woven == "a" + BIT0 + BIT1 + "b" + END


def test_weave_after_first_strategy():
    woven = weave_into_unigram("abc", BIT0 + END, strategy="after_first")
    assert woven == "a" + BIT0 + END + "bc"


def test_weave_rejects_empty_word():
    with pytest.raises(DataError, match="^cannot weave into an empty word$"):
        weave_into_unigram("", END)


def test_weave_rejects_contaminated_word():
    with pytest.raises(
        DataError,
        match="^carrier word already contains zero-width alphabet code points; "
        "strip it first$",
    ):
        weave_into_unigram("a" + BIT0 + "b", END)


def test_weave_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        weave_into_unigram("ab", END, strategy="sideways")


def test_weave_never_splits_grapheme_cluster():
    # "e" + combining acute is one user-perceived character
    word = "aéb"
    woven = weave_into_unigram(word, BIT0 + BIT1 + END)
    assert "é" in woven


@given(clean_word, payloads, st.sampled_from(weaver.STRATEGIES))
def test_weave_strip_round_trip(word, payload, strategy):
    woven = weave_into_unigram(word, payload, strategy)
    clean, extracted = strip_zero_width(woven)
    assert clean == word
    assert extracted == payload
    assert woven[0] == word[0]  # payload never at position 0


# Words that take the ASCII path (any ASCII, control characters and CRLF
# included) and words that mix ASCII with clusters only \X can split.
ascii_word = st.lists(
    st.one_of(st.characters(max_codepoint=0x7F), st.just("\r\n")),
    min_size=1,
    max_size=12,
).map("".join)
NON_ASCII_CLUSTERS = (
    "e\u0301",  # e + combining acute
    "\u0301",  # a lone combining mark
    "\U0001F44D\U0001F3FD",  # thumbs up + skin tone modifier
    "\U0001F1EB\U0001F1F7",  # regional indicator pair (a flag)
    "\u2764\ufe0f",  # heart + variation selector
    "\ud55c",  # precomposed Hangul syllable
    "\u1100\u1161\u11a8",  # conjoining Hangul jamo L V T
    "\u00e9",
)
mixed_word = st.lists(
    st.one_of(
        st.characters(max_codepoint=0x7F),
        st.just("\r\n"),
        st.sampled_from(NON_ASCII_CLUSTERS),
    ),
    min_size=1,
    max_size=8,
).map("".join)


def weave_by_grapheme_regex(word, payload, strategy):
    """weave_into_unigram as specified: payload runs after each \\X cluster."""
    clusters = regex.findall(r"\X", word)
    if strategy == "after_first":
        runs = [payload] + [""] * (len(clusters) - 1)
    else:
        base, extra = divmod(len(payload), len(clusters))
        sizes = [base + (gap < extra) for gap in range(len(clusters))]
        starts = [sum(sizes[:gap]) for gap in range(len(clusters))]
        runs = [payload[start : start + size] for start, size in zip(starts, sizes)]
    return "".join(cluster + run for cluster, run in zip(clusters, runs))


@given(st.one_of(ascii_word, mixed_word), payloads, st.sampled_from(weaver.STRATEGIES))
def test_weave_splits_words_as_grapheme_regex_does(word, payload, strategy):
    expected = weave_by_grapheme_regex(word, payload, strategy)
    assert weave_into_unigram(word, payload, strategy) == expected


def test_secret_units_are_single_letter_streams():
    units = secret_units("AB")
    assert units == [BIT0 + END, BIT1 + END]
    for unit in units:
        assert unit.endswith(END)


def test_embed_no_lines_reports_overflow():
    assert embed_linewise("", "ABC") == ("", 3)


def test_embed_one_letter_into_first_line():
    out, dropped = embed_linewise("x\ny", "A")
    assert carrier_lines(out) == ["x" + BIT0 + END, "y"]
    assert dropped == 0


def test_embed_empty_secret_is_identity():
    cover = "\n".join(["alpha beta", "", "gamma"])
    assert embed_linewise(cover, "") == (cover, 0)


def test_embed_targets_first_word_only():
    out, _ = embed_linewise("  hello world  ", "A")
    # unit "A" = BIT0+END spread over the gaps of "hello"
    assert out == "  h" + BIT0 + "e" + END + "llo world  "
    clean, _ = strip_zero_width(out)
    assert clean == "  hello world  "


def test_embed_skips_blank_lines_without_consuming():
    out = carrier_lines(embed_linewise("\n".join(["", "   ", "word"]), "A")[0])
    assert out[0] == ""
    assert out[1] == "   "
    clean, extracted = strip_zero_width(out[2])
    assert clean == "word"
    assert zwcodec.decode_stream(extracted) == "A"


def test_embed_preserves_line_terminators():
    cover = "one\r\ntwo\nthree"
    out, _ = embed_linewise(cover, "AB")
    first, second, third = carrier_lines(out)
    assert first.endswith("\r") and out.count("\n") == 2
    assert [strip_zero_width(line)[0] for line in (first, second, third)] == [
        "one\r", "two", "three"
    ]


def test_extract_round_trip():
    out, dropped = embed_linewise("x\ny", "AB")
    assert (extract_from_text(out), dropped) == ("AB", 0)


def test_extract_clean_carrier_is_empty():
    assert extract_from_text("plain\ntext") == ""


def test_extract_after_truncation():
    out, dropped = embed_linewise("x", "AB")
    assert dropped == 1
    assert extract_from_text(out) == "A"


def test_extract_reports_line_number_on_malformed_stream():
    with pytest.raises(MalformedStream, match="line 2"):
        extract_from_text("fine\nbro" + BIT0 + "ken")  # no end marker


@given(st.lists(clean_line, max_size=6), secrets)
def test_line_count_and_visible_invariance(lines, secret):
    out, _ = embed_linewise("\n".join(lines), secret)
    assert len(carrier_lines(out)) == len(lines)
    assert [strip_zero_width(l)[0] for l in carrier_lines(out)] == lines


@given(st.lists(clean_line, max_size=6), secrets)
def test_payload_conservation(lines, secret):
    out, dropped = embed_linewise("\n".join(lines), secret)
    recovered = extract_from_text(out)
    assert recovered == secret[: len(recovered)]
    assert len(recovered) == min(len(secret), len(lines))
    assert dropped == len(secret) - len(recovered)


@given(st.lists(clean_line, max_size=5), secrets)
def test_idempotent_cleanliness(lines, secret):
    embedded, _ = embed_linewise("\n".join(lines), secret)
    stripped = [strip_zero_width(l)[0] for l in carrier_lines(embedded)]
    re_embedded, _ = embed_linewise("\n".join(stripped), secret)
    assert [strip_zero_width(l)[0] for l in carrier_lines(re_embedded)] == lines


def test_text_level_embedding_round_trip():
    text = "first line\r\nsecond line\nthird\n"
    stego = embed_into_text(text, "KEY")
    assert strip_zero_width(stego)[0] == text
    assert extract_from_text(stego) == "KEY"


def test_text_level_embedding_warns_overflow():
    with pytest.warns(SecretOverflow) as caught:
        stego = embed_into_text("only line\n", "ABC")
    assert [w.message.dropped for w in caught] == [2]
    assert extract_from_text(stego) == "A"


# every boundary str.splitlines breaks at, CRLF included; of these only LF,
# alone or in CRLF, ends a carrier line
LINE_BOUNDARIES = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029"]
cover_line = st.text(alphabet=st.sampled_from("ab é漢 \t"), max_size=8)


@given(
    st.lists(st.tuples(cover_line, st.sampled_from(LINE_BOUNDARIES)), max_size=12),
    secrets,
)
def test_text_round_trip_over_every_line_boundary(lines, secret):
    cover = "".join(text + boundary for text, boundary in lines)
    carrying = sum(1 for line in carrier_lines(cover) if line.strip())
    stego = embed_into_text(cover, secret)
    assert strip_zero_width(stego)[0] == cover
    assert extract_from_text(stego) == secret[:carrying]


@given(
    st.lists(st.tuples(cover_line, st.sampled_from(LINE_BOUNDARIES)), max_size=12),
    secrets,
)
def test_joined_lines_extract_every_embedded_letter(lines, secret):
    # A channel that joins lines leaves several streams on one line.
    cover = "".join(text + boundary for text, boundary in lines)
    woven, dropped = embed_linewise(cover, secret)
    embedded = secret[: len(secret) - dropped]
    assert extract_from_text(woven.replace("\n", " ")) == embedded


def test_a_partial_stream_after_whole_ones_raises_with_its_line():
    joined = embed_linewise("one\ntwo\n", "KE")[0].replace("\n", " ")
    assert extract_from_text("clean\n" + joined) == "KE"
    with pytest.raises(
        MalformedStream, match="^line 2: stream does not contain an end marker$"
    ):
        extract_from_text("clean\n" + joined + "x" + BIT0 + BIT1)


def test_malformed_stream_line_number_counts_every_line_boundary():
    cover = "a\r\nb\x0bc\x1cd\x85e\u2028bro" + BIT0 + "ken\u2029last"
    with pytest.raises(MalformedStream, match="^line 2: "):
        extract_from_text(cover)


# The line rule at the three places that read carrier lines: VT, FF and
# the other separators str.splitlines breaks at sit inside a line.
FORM_FEED_COVER = "alpha\x0cbeta\ngamma delta\n"


def test_extraction_counts_a_form_feed_line_as_one_line():
    with pytest.raises(MalformedStream, match="^line 1: "):
        extract_from_text("ok\x0cbad" + BIT0 + " here\n")


def test_embedding_counts_a_form_feed_line_as_one_line():
    with pytest.warns(SecretOverflow) as caught:
        stego = embed_into_text(FORM_FEED_COVER, "MEET")
    assert [w.message.dropped for w in caught] == [2]
    assert extract_from_text(stego) == "ME"


def test_grid_steganography_counts_a_form_feed_line_as_one_line():
    config = pipeline.PipelineConfig(id=8, payload="MEET")
    stego, dropped = pipeline.apply_config(FORM_FEED_COVER, config)
    assert dropped == 2
    assert stego == embed_into_text(FORM_FEED_COVER, "ME")


# multi-line texts drawn like test_zwcodec's unicode_with_noise, with whole
# letter streams, point runs at both ends of the text and adjacent point runs
point_run = st.text(alphabet=st.sampled_from(BIT0 + BIT1 + SEP + END), min_size=1,
                    max_size=6)
noisy_lines = st.tuples(
    st.one_of(st.just(""), point_run),
    st.lists(
        st.one_of(
            st.characters(blacklist_categories=("Cs",)),
            point_run,
            st.sampled_from([zwcodec.encode_message(letter) for letter in "AQZ"]),
            st.sampled_from(LINE_BOUNDARIES),
            st.sampled_from(["\U0001F600", "\U0001F468" + SEP + "\U0001F469",
                             "\u6f22\u5b57", "\u0915\u094D\u0937"]),
        ),
        max_size=60,
    ).map("".join),
    st.one_of(st.just(""), point_run),
).map("".join)


def extract_per_line(text):
    """Reference extraction: filter each carrier line, decode each of its
    streams in turn; points after the line's last end marker raise."""
    letters = []
    for number, line in enumerate(carrier_lines(text), start=1):
        stream = "".join(char for char in line if char in zwcodec.POINTS)
        while stream:
            body, end, stream = stream.partition(END)
            try:
                letters.append(zwcodec.decode_stream(body + end))
            except MalformedStream as exc:
                return "error", f"line {number}: {exc}"
    return "letters", "".join(letters)


@given(noisy_lines)
def test_extraction_matches_per_line_reference(text):
    try:
        got = "letters", extract_from_text(text)
    except MalformedStream as exc:
        got = "error", str(exc)
    assert got == extract_per_line(text)


#: Texts of words (a first word may repeat, or hold a point) cut by every
#: line boundary, whitespace that is not one, and blank lines.
line_pieces = st.lists(
    st.sampled_from(
        ["ab", "ab", "\u00e9", "\u6f22", "x" + BIT0 + "y", " ", "\t", "\xa0",
         "\u3000", "\x1f", *LINE_BOUNDARIES]
    ),
    max_size=24,
).map("".join)


def reference_woven_words(text, secret, strategy):
    """Line ends from :func:`carrier_lines`, and each carrying line's first
    ``\\S+`` woven with the next letter, or the first error raised."""
    lines = carrier_lines(text)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)
    ends = [min(end, len(text)) for end in starts[1:]]
    edits = []
    units = secret_units(secret)
    for start, line in zip(starts, lines):
        word = re.search(r"\S+", line)
        if word and len(edits) < len(units):
            try:
                woven = weave_into_unigram(word.group(), units[len(edits)], strategy)
            except DataError as exc:
                return ends, ("error", str(exc))
            edits.append((start + word.start(), word.group(), woven))
    return ends, (edits, len(units) - len(edits))


@given(line_pieces, secrets, st.sampled_from([*weaver.STRATEGIES, "bogus"]))
def test_line_cuts_and_first_words_match_the_line_oracle(text, secret, strategy):
    ends, expected = reference_woven_words(text, secret, strategy)
    assert weaver._line_ends(text) == ends
    try:
        got = weaver._woven_words(text, secret, strategy)
    except DataError as exc:
        got = "error", str(exc)
    assert got == expected


def test_embedding_weaves_each_distinct_word_and_letter_once(monkeypatch):
    calls = []
    weave = weaver.weave_into_unigram
    monkeypatch.setattr(
        weaver, "weave_into_unigram", lambda *args: calls.append(args) or weave(*args)
    )
    out, dropped = embed_linewise("ab x\nab y\ncd\nab\n", "AAAB")
    assert dropped == 0
    assert extract_from_text(out) == "AAAB"
    assert calls == [("ab", zwcodec.encode_message("A"), "round_robin"),
                     ("cd", zwcodec.encode_message("A"), "round_robin"),
                     ("ab", zwcodec.encode_message("B"), "round_robin")]


def test_secret_units_encode_each_distinct_letter_once(monkeypatch):
    calls = []
    encode = zwcodec.encode_message
    monkeypatch.setattr(zwcodec, "encode_message", lambda m: calls.append(m) or encode(m))
    assert secret_units("ABAB") == [BIT0 + END, BIT1 + END] * 2
    assert calls == ["A", "B"]


def test_secret_units_report_first_unsupported_character():
    with pytest.raises(zwcodec.UnsupportedCharacter) as exc:
        secret_units("AB?C!?")
    assert (exc.value.position, exc.value.char) == (2, "?")
    with pytest.raises(zwcodec.UnsupportedCharacter) as exc:
        secret_units("SI\u0131")  # dotless i uppercases to I
    assert (exc.value.position, exc.value.char) == (2, "\u0131")
