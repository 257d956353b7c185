"""Weave zero-width payloads into carrier text.

Payload code points go *between* a word's grapheme clusters, never before
the first one, so whitespace canonicalization (trimming, collapsing) cannot
dislodge them.  Line-wise embedding spreads a secret across a document one
letter per non-blank line, leaving surplus lines untouched.  Embedding and
extraction cut lines in one place, :func:`_line_ends`: a line ends after LF;
embedding picks its words in one place too, :func:`_woven_words`.

Carrier text is expected to be clean of the four alphabet code points;
weaving into an already-contaminated word cannot satisfy the strip
round-trip and is rejected.
"""

from __future__ import annotations

import operator
import warnings
from bisect import bisect_left, bisect_right
from functools import cache

from . import DataError, zwcodec
from .zwcodec import END, POINTS, MalformedStream, _point_starts

STRATEGIES = ("round_robin", "after_first")


class SecretOverflow(UserWarning):
    """More secret letters than carrier lines; the surplus was dropped."""

    def __init__(self, dropped: int):
        self.dropped = dropped
        super().__init__(f"{dropped} secret letter(s) exceeded the carrier line count")


@cache
def _grapheme_pattern():
    r"""``\X``, compiled on first use so that ``regex`` loads only when needed."""
    import regex

    return regex.compile(r"\X")


def weave_into_unigram(
    word: str, payload: str, strategy: str = "round_robin"
) -> str:
    """Distribute a zero-width stream between a word's grapheme clusters.

    ``round_robin`` cycles the insertion gaps left to right, handing each
    gap a contiguous run of payload units (runs differ in length by at most
    one) so that in-order extraction reproduces the payload exactly.
    ``after_first`` places the whole stream after the first cluster.
    Position 0 of the word never receives payload.
    """
    if not word:
        raise DataError("cannot weave into an empty word")
    if not POINTS.isdisjoint(word):
        raise DataError(
            "carrier word already contains zero-width alphabet code points; "
            "strip it first"
        )
    if strategy not in STRATEGIES:
        raise DataError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")

    if word.isascii() and "\r" not in word:
        # No ASCII character joins its neighbour except CR before LF, so
        # this word's grapheme clusters are its characters.
        clusters = list(word)
    else:
        clusters = _grapheme_pattern().findall(word)
    # runs[i] goes after clusters[i]; clusters past the last run get none.
    if strategy == "after_first":
        runs = [payload]
    elif len(payload) <= len(clusters):
        # One unit after each of the first len(payload) clusters.  About
        # half the words of a line-wise embed are long enough for their
        # letter, and this skips two slice comprehensions for them.
        runs = payload
    else:
        # Contiguous runs, the first ``extra`` of them one unit longer.
        base, extra = divmod(len(payload), len(clusters))
        cut = extra * (base + 1)
        runs = [payload[i : i + base + 1] for i in range(0, cut, base + 1)]
        runs += [payload[i : i + base] for i in range(cut, len(payload), base)]
    woven = "".join(map(operator.add, clusters, runs))
    return woven + "".join(clusters[len(runs) :])


def secret_units(secret: str) -> list[str]:
    """Encode each secret letter as its own self-terminated stream.

    Each distinct letter is encoded once, in order of first occurrence, so
    the first unsupported character is the one reported, at its index in
    the secret.
    """
    streams = {}
    for letter in dict.fromkeys(secret):
        try:
            streams[letter] = zwcodec.encode_message(letter)
        except zwcodec.UnsupportedCharacter as exc:
            raise zwcodec.UnsupportedCharacter(secret.index(letter), exc.char) from None
    return [streams[letter] for letter in secret]


def _line_ends(text: str) -> list[int]:
    r"""The end offset of each carrier line of ``text``: a line ends after LF.

    So CRLF is one ending, and lone CR, VT, FF, ``\x1c``-``\x1e``, U+0085,
    U+2028 and U+2029 are characters inside a line.  Text after the last LF
    is one more line.  The LFs are found by ``str.find``, not a pattern, and
    no line is copied.
    """
    ends = []
    end = text.find("\n") + 1
    while end:
        ends.append(end)
        end = text.find("\n", end) + 1
    if text and not text.endswith("\n"):
        ends.append(len(text))
    return ends


def _woven_words(
    text: str, secret: str, strategy: str = "round_robin"
) -> tuple[list[tuple[int, str, str]], int]:
    r"""Where :func:`embed_linewise` weaves, and the number of letters dropped.

    One edit per carrying line of :func:`_line_ends`, ``(offset, first
    word, woven word)``: the first word is a maximal run of non-whitespace
    (``str.isspace``, as ``\s``), so the edits change whole
    whitespace-delimited words and nothing else.  Each distinct word and
    letter is woven once.
    """
    units = secret_units(secret)
    edits = []
    woven: dict[tuple[str, str], str] = {}
    start = 0
    for end in _line_ends(text):
        if len(edits) == len(units):
            break
        rest = text[start:end].lstrip()
        if rest:
            word = rest.split(None, 1)[0]
            key = word, units[len(edits)]
            if key not in woven:
                woven[key] = weave_into_unigram(word, key[1], strategy)
            edits.append((end - len(rest), word, woven[key]))
        start = end
    return edits, len(units) - len(edits)


def _spliced(text: str, edits) -> str:
    """``text`` with each :func:`_woven_words` edit made: its word woven."""
    pieces = []
    done = 0
    for start, word, woven in edits:
        pieces += text[done:start], woven
        done = start + len(word)
    pieces.append(text[done:])
    return "".join(pieces)


def embed_linewise(
    text: str, secret: str, strategy: str = "round_robin"
) -> tuple[str, int]:
    """Hide one secret letter per carrier line, inside the line's first word.

    Lines beyond the secret's length pass through byte-identical.  Blank or
    whitespace-only lines are skipped and consume no secret letter.  If the
    secret outlives the carrier, the surplus is dropped.  Returns the text
    and the number of letters dropped.
    """
    edits, dropped = _woven_words(text, secret, strategy)
    return _spliced(text, edits), dropped


def embed_into_text(text: str, secret: str, strategy: str = "round_robin") -> str:
    """:func:`embed_linewise`, with a SecretOverflow warning for dropped letters."""
    text, dropped = embed_linewise(text, secret, strategy)
    if dropped:
        warnings.warn(SecretOverflow(dropped), stacklevel=2)
    return text


def extract_from_text(text: str) -> str:
    """Recover the secret hidden by :func:`embed_linewise`, in line order.

    A line may hold several streams, as when a channel joins carrier lines:
    each is decoded, in order.  Points after a line's last end marker are a
    stream cut short, and raise :class:`MalformedStream` naming the line.

    The points are found in one pass, then grouped by line with two bisects
    per carrying line.  Each distinct line of points is decoded once.
    """
    starts = _point_starts(text)
    ends = _line_ends(text)
    stream = "".join(map(text.__getitem__, starts))
    found = []
    decoded: dict[str, str] = {}
    first = line = 0
    while first < len(starts):
        # The line holding the next point, and the points in that line.
        line = bisect_right(ends, starts[first], line)
        last = bisect_left(starts, ends[line], first)
        extracted = stream[first:last]
        letters = decoded.get(extracted)
        if letters is None:
            *streams, tail = extracted.split(END)
            try:
                letters = "".join(zwcodec.decode_stream(s + END) for s in streams)
                if tail:
                    zwcodec.decode_stream(tail)  # refuses it: it has no end marker
            except MalformedStream as exc:
                raise MalformedStream(f"line {line + 1}: {exc}") from exc
            decoded[extracted] = letters
        found.append(letters)
        first = last
    return "".join(found)
