import html
import json
import re
import string
import textwrap
import unicodedata

import pytest
import regex
from hypothesis import given
from hypothesis import strategies as st

from stylocloak import weaver, zwcodec
from stylocloak.zwcodec import (
    BIT0,
    BIT1,
    END,
    SEP,
    CODEBOOK,
    POINTS,
    MalformedStream,
    UnsupportedCharacter,
    decode_stream,
    encode_message,
    scan_text,
    strip_zero_width,
)

letters = st.text(alphabet=string.ascii_uppercase, max_size=300)


def binary_by_hand(n):
    # division-loop oracle, independent of format()
    if n == 0:
        return "0"
    bits = ""
    while n:
        bits = str(n % 2) + bits
        n //= 2
    return bits


def test_codebook_canonical_values():
    assert CODEBOOK["A"] == "0"
    assert CODEBOOK["B"] == binary_by_hand(1) == "1"
    assert CODEBOOK["Z"] == binary_by_hand(25) == "11001"
    for i, letter in enumerate(string.ascii_uppercase):
        assert CODEBOOK[letter] == binary_by_hand(i)


def test_codebook_reverse_is_exact_inverse():
    reverse = zwcodec._LETTERS
    assert len(reverse) == 26
    for letter, bits in CODEBOOK.items():
        assert reverse[bits] == letter


def test_alphabet_code_points_distinct_and_zero_width():
    assert len({BIT0, BIT1, SEP, END}) == 4
    assert POINTS == frozenset((BIT0, BIT1, SEP, END))


def test_encode_single_letter():
    assert encode_message("A") == BIT0 + END


def test_encode_two_letters_joined_by_separator():
    # concatenation per codebook: A="0", B="1"
    assert encode_message("AB") == BIT0 + SEP + BIT1 + END


def test_encode_empty_is_bare_end_marker():
    assert encode_message("") == END


def test_encode_uppercases_input():
    assert encode_message("ab") == encode_message("AB")


@pytest.mark.parametrize("char", ["\u0131", "\u017f"])
def test_encode_rejects_a_letter_that_uppercases_into_a_z(char):
    assert char.upper() in "IS"
    with pytest.raises(UnsupportedCharacter) as exc:
        encode_message("AB" + char)
    assert (exc.value.position, exc.value.char) == (2, char)


def test_encode_strict_rejects_non_letters():
    with pytest.raises(UnsupportedCharacter) as exc:
        encode_message("A!B")
    assert exc.value.position == 1
    assert exc.value.char == "!"


def test_decode_examples():
    assert decode_stream(BIT0 + END) == "A"
    assert decode_stream(BIT0 + SEP + BIT1 + END) == "AB"
    # binary 25 = 11001
    assert decode_stream(BIT1 + BIT1 + BIT0 + BIT0 + BIT1 + END) == "Z"


def test_decode_rejects_foreign_code_point():
    with pytest.raises(MalformedStream, match="foreign"):
        decode_stream("x" + END)


def test_decode_rejects_missing_end():
    with pytest.raises(MalformedStream, match="end marker"):
        decode_stream(BIT0)
    with pytest.raises(MalformedStream, match="end marker"):
        decode_stream("")


def test_decode_rejects_unknown_bit_group():
    # 11111 = 31, past Z
    with pytest.raises(MalformedStream, match="unknown bit-group"):
        decode_stream(BIT1 * 5 + END)
    # empty group from doubled separator
    with pytest.raises(MalformedStream, match="unknown bit-group"):
        decode_stream(BIT0 + SEP + SEP + BIT0 + END)


def test_decode_ignores_content_after_first_end():
    assert decode_stream(BIT0 + END + BIT1 + END) == "A"


def test_encode_decode_known_word():
    stream = encode_message("ENSHITTIFICATION")
    assert decode_stream(stream) == "ENSHITTIFICATION"


@given(letters)
def test_round_trip(message):
    assert decode_stream(encode_message(message)) == message


def test_round_trip_long_message():
    message = (string.ascii_uppercase * 200)[:4096]
    assert decode_stream(encode_message(message)) == message


@given(letters)
def test_stream_purity(message):
    stream = encode_message(message)
    assert set(stream) <= POINTS
    assert stream.count(END) == 1 and stream.endswith(END)


@given(letters)
def test_determinism(message):
    assert encode_message(message) == encode_message(message)


def test_strip_clean_text():
    assert strip_zero_width("cat") == ("cat", "")


def test_strip_separates_payload_preserving_order():
    text = "c" + BIT0 + "at" + END
    assert strip_zero_width(text) == ("cat", BIT0 + END)


def test_strip_reconstruction_by_offsets():
    text = "a" + BIT1 + "b" + SEP + END + "c"
    clean, extracted = strip_zero_width(text)
    assert clean == "abc"
    assert extracted == BIT1 + SEP + END
    # interleaving at original offsets rebuilds the text
    rebuilt = []
    ci = ei = 0
    for ch in text:
        if ch in POINTS:
            rebuilt.append(extracted[ei])
            ei += 1
        else:
            rebuilt.append(clean[ci])
            ci += 1
    assert "".join(rebuilt) == text


def test_scan_clean_text():
    report = scan_text("hello")
    assert report.verdict is False
    assert all(count == 0 for count in report.counts.values())
    assert report.offsets == []


def test_scan_counts_encoded_message():
    report = scan_text(encode_message("AB"))
    assert report.counts == {BIT0: 1, BIT1: 1, SEP: 1, END: 1}
    assert report.verdict is True


def test_scan_offsets_are_utf8_byte_positions_strictly_increasing():
    text = "héllo" + BIT0 + "x" + END
    report = scan_text(text)
    offsets = [off for off, _ in report.offsets]
    assert offsets == sorted(offsets) and len(set(offsets)) == len(offsets)
    raw = text.encode("utf-8")
    for off, char in report.offsets:
        assert raw[off:].decode("utf-8").startswith(char)


def test_scan_json_shape():
    payload = json.loads(scan_text("a" + BIT0).to_json())
    assert set(payload) == {"counts", "offsets", "verdict"}
    assert payload["verdict"] is True
    assert payload["counts"]["U+200B"] == 1


def test_scan_report_fields_json_bytes_and_immutability():
    # "é" is two bytes in UTF-8, so the BIT1 after it starts at byte 3
    report = scan_text("hé" + BIT1 + "y" + END + "\n")
    assert report.counts == {BIT0: 0, BIT1: 1, SEP: 0, END: 1}
    assert report.offsets == [(3, BIT1), (7, END)]
    assert report.verdict is True
    assert report.to_json() == (
        '{"counts": {"U+200B": 0, "U+200C": 1, "U+200D": 0, "U+FEFF": 1}, '
        '"offsets": [[3, "U+200C"], [7, "U+FEFF"]], "verdict": true}'
    )
    for name in ("counts", "offsets", "verdict", "extra"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)


text_with_noise = st.text(
    alphabet=st.sampled_from(string.printable + BIT0 + BIT1 + SEP + END),
    max_size=200,
)


@given(text_with_noise)
def test_scanner_matches_strip(text):
    report = scan_text(text)
    _, extracted = strip_zero_width(text)
    assert report.verdict == (len(extracted) > 0)
    assert sum(report.counts.values()) == len(extracted)


def naive_strip(text):
    # per-character reference for strip_zero_width
    clean, extracted = [], []
    for char in text:
        (extracted if char in POINTS else clean).append(char)
    return "".join(clean), "".join(extracted)


def naive_scan(text):
    # per-character reference for scan_text: one UTF-8 encode per character
    counts = {p: 0 for p in sorted(POINTS)}
    offsets = []
    byte_offset = 0
    for char in text:
        if char in POINTS:
            counts[char] += 1
            offsets.append((byte_offset, char))
        byte_offset += len(char.encode("utf-8"))
    return counts, offsets, bool(offsets)


# every non-surrogate code point, with the payload points, astral emoji (also
# as a ZWJ sequence), CJK, Devanagari and the line boundaries drawn often
unicode_with_noise = st.lists(
    st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from(sorted(POINTS)),
        st.sampled_from(
            ["\U0001F600", "\U0001F468" + SEP + "\U0001F469", "\u6f22\u5b57",
             "\u0915\u094D\u0937", "\r\n", "\x85", "\u2028"]
        ),
    ),
    max_size=100,
).map("".join)


@given(unicode_with_noise)
def test_scan_and_strip_match_per_character_reference(text):
    report = scan_text(text)
    assert (report.counts, report.offsets, report.verdict) == naive_scan(text)
    assert list(report.counts) == sorted(POINTS)
    assert strip_zero_width(text) == naive_strip(text)


def test_scan_offset_after_astral_emoji_is_four_bytes():
    assert scan_text("\U0001F600" + BIT0).offsets == [(4, BIT0)]


def test_scan_lone_surrogate_raises_encode_error():
    with pytest.raises(UnicodeEncodeError):
        scan_text("a" + BIT0 + "\ud800")


@pytest.mark.parametrize(
    "text, index",
    [
        ("a" + BIT0 + "\ud800", 2),
        ("\udfff", 0),
        ("\U0001F600" + BIT0 + "x\udc80" + END, 3),
    ],
)
def test_scan_lone_surrogate_error_reports_its_character_index(text, index):
    with pytest.raises(UnicodeEncodeError) as exc:
        scan_text(text)
    assert (exc.value.start, exc.value.end) == (index, index + 1)


def test_write_refuses_leading_bom(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(MalformedStream, match="byte-order mark"):
        zwcodec.write_text_file(target, END + "text")


def test_file_round_trip_preserves_crlf_and_payload(tmp_path):
    target = tmp_path / "doc.txt"
    text = "one" + BIT0 + END + "\r\ntwo\nthree\r\n"
    zwcodec.write_text_file(target, text)
    assert zwcodec.read_text_file(target) == text
    assert target.read_bytes().count(b"\r\n") == 2


#: The cover of the posting-channel tests: accents, a ligature and a CRLF line.
POSTED_COVER = "caf\u00e9 au lait\r\nna\u00efve line\n\u00e9t\u00e9 \ufb01n\n"


@pytest.mark.parametrize("form", ["NFC", "NFD", "NFKC", "NFKD"])
def test_normalization_keeps_the_points_and_a_woven_payload(form):
    # The package does not normalize because strip must give back the
    # input's code points, not because a form would destroy a payload.
    assert all(unicodedata.normalize(form, point) == point for point in POINTS)
    cover = POSTED_COVER
    woven, dropped = weaver.embed_linewise(cover, "KEY")
    assert dropped == 0
    normalized = unicodedata.normalize(form, woven)
    assert normalized != woven or form == "NFC"
    assert weaver.extract_from_text(normalized) == "KEY"
    assert strip_zero_width(normalized)[0] == unicodedata.normalize(form, cover)


#: What a posting channel does to a text, and the letters of ``KEY`` that
#: ``extract_from_text`` still finds after it (README, "Posting channels").
CHANNELS = {
    "CRLF to LF": (lambda text: text.replace("\r\n", "\n"), "KEY"),
    "LF to CRLF": (lambda text: re.sub("(?<!\r)\n", "\r\n", text), "KEY"),
    "trailing blanks trimmed": (
        lambda text: re.sub("[ \t]+(?=\r?$)", "", text, flags=re.M), "KEY"
    ),
    "space runs collapsed": (lambda text: re.sub(" +", " ", text), "KEY"),
    "lines joined by a space": (lambda text: " ".join(text.splitlines()), "KEY"),
    "words re-joined": (lambda text: " ".join(text.split()), "KEY"),
    "casefold": (str.casefold, "KEY"),
    "textwrap.fill": (textwrap.fill, "KEY"),
    "html.escape": (html.escape, "KEY"),
    "html escape round trip": (lambda text: html.unescape(html.escape(text)), "KEY"),
    "default ignorables deleted": (
        lambda text: regex.sub(r"\p{Default_Ignorable_Code_Point}", "", text), ""
    ),
}


@pytest.mark.parametrize("name", CHANNELS)
def test_a_posting_channel_keeps_the_documented_letters(name):
    channel, letters = CHANNELS[name]
    cover = POSTED_COVER
    woven, dropped = weaver.embed_linewise(cover, "KEY")
    assert dropped == 0
    posted = channel(woven)
    assert weaver.extract_from_text(posted) == letters
    assert strip_zero_width(posted)[0] == channel(cover)


def test_textwrap_counts_the_points_toward_its_width():
    woven, _ = weaver.embed_linewise(POSTED_COVER, "KEY")
    wrapped = textwrap.fill(woven, width=10)
    assert weaver.extract_from_text(wrapped) == "KEY"
    assert strip_zero_width(wrapped)[0].startswith("caf\u00e9\nau lait\n")
    assert textwrap.fill(POSTED_COVER, width=10).startswith("caf\u00e9 au\nlait\n")


def test_textwrap_breaking_a_long_woven_word_is_a_malformed_stream():
    woven, _ = weaver.embed_linewise(POSTED_COVER, "KEY")
    with pytest.raises(MalformedStream, match="^line 1: "):
        weaver.extract_from_text(textwrap.fill(woven, width=5))
