"""Weave zero-width payloads into carrier text.

Payload code points go *between* a word's grapheme clusters, never before
the first one, so whitespace canonicalization (trimming, collapsing) cannot
dislodge them.  Line-wise embedding spreads a secret across a document one
letter per non-blank line, leaving surplus lines untouched.  Embedding and
extraction cut lines in one place, :func:`_line_ends`: a line ends after LF.

Carrier text is expected to be clean of the four alphabet code points;
weaving into an already-contaminated word cannot satisfy the strip
round-trip and is rejected.
"""

from __future__ import annotations

import operator
import re
import warnings
from bisect import bisect_left, bisect_right
from functools import cache

from . import DataError, zwcodec
from .zwcodec import POINTS, MalformedStream, _point_starts

_FIRST_WORD = re.compile(r"\S+")
_LINE = re.compile(r".*\n|.+")  # without DOTALL, "." is anything but LF

STRATEGIES = ("round_robin", "after_first")


class EmptyWord(DataError):
    """The carrier word has no visible code point to anchor the payload."""


class ContaminatedWord(DataError):
    """The carrier word already holds zero-width alphabet code points."""


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
        raise EmptyWord("cannot weave into an empty word")
    if not POINTS.isdisjoint(word):
        raise ContaminatedWord(
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
    the first unsupported character is the one reported.
    """
    streams = {
        letter: zwcodec.encode_message(letter) for letter in dict.fromkeys(secret)
    }
    return [streams[letter] for letter in secret]


def _line_ends(text: str) -> list[int]:
    r"""The end offset of each carrier line of ``text``: a line ends after LF.

    So CRLF is one ending, and lone CR, VT, FF, ``\x1c``-``\x1e``, U+0085,
    U+2028 and U+2029 are characters inside a line.  Text after the last LF
    is one more line.
    """
    return [line.end() for line in _LINE.finditer(text)]


def embed_linewise(
    text: str, secret: str, strategy: str = "round_robin"
) -> tuple[str, int]:
    """Hide one secret letter per carrier line, inside the line's first word.

    Lines beyond the secret's length pass through byte-identical.  Blank or
    whitespace-only lines are skipped and consume no secret letter.  If the
    secret outlives the carrier, the surplus is dropped.  Returns the text
    and the number of letters dropped.
    """
    units = secret_units(secret)
    pieces = []
    done = start = position = 0
    for end in _line_ends(text):
        if position == len(units):
            break
        match = _FIRST_WORD.search(text, start, end)
        if match:
            woven = weave_into_unigram(match.group(), units[position], strategy)
            pieces += text[done : match.start()], woven
            done = match.end()
            position += 1
        start = end
    pieces.append(text[done:])
    return "".join(pieces), len(units) - position


def embed_into_text(text: str, secret: str, strategy: str = "round_robin") -> str:
    """:func:`embed_linewise`, with a SecretOverflow warning for dropped letters."""
    text, dropped = embed_linewise(text, secret, strategy)
    if dropped:
        warnings.warn(SecretOverflow(dropped), stacklevel=2)
    return text


def extract_from_text(text: str) -> str:
    """Recover the secret hidden by :func:`embed_linewise`, in line order.

    The points are found in one pass, then grouped by line with two bisects
    per carrying line.  Each distinct line stream is decoded once.
    """
    starts = _point_starts(text)
    ends = _line_ends(text)
    stream = "".join(map(text.__getitem__, starts))
    letters = []
    decoded: dict[str, str] = {}
    first = line = 0
    while first < len(starts):
        # The line holding the next point, and the points in that line.
        line = bisect_right(ends, starts[first], line)
        last = bisect_left(starts, ends[line], first)
        extracted = stream[first:last]
        letter = decoded.get(extracted)
        if letter is None:
            try:
                letter = decoded[extracted] = zwcodec.decode_stream(extracted)
            except MalformedStream as exc:
                raise MalformedStream(f"line {line + 1}: {exc}") from exc
        letters.append(letter)
        first = last
    return "".join(letters)
