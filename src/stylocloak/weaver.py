"""Weave zero-width payloads into carrier text.

Payload code points go *between* a word's grapheme clusters, never before
the first one, so whitespace canonicalization (trimming, collapsing) cannot
dislodge them.  Line-wise embedding spreads a secret across a document one
letter per non-blank line, leaving surplus lines untouched.

Carrier text is expected to be clean of the four alphabet code points;
weaving into an already-contaminated word cannot satisfy the strip
round-trip and is rejected.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import regex

from . import zwcodec
from .zwcodec import POINT_PATTERN, MalformedStream

_GRAPHEME = regex.compile(r"\X")
_FIRST_WORD = re.compile(r"\S+")

STRATEGIES = ("round_robin", "after_first")


class EmptyWord(ValueError):
    """The carrier word has no visible code point to anchor the payload."""


class ContaminatedWord(ValueError):
    """The carrier word already holds zero-width alphabet code points."""


class SecretOverflow(UserWarning):
    """More secret letters than carrier lines; the surplus was dropped."""

    def __init__(self, dropped: int):
        self.dropped = dropped
        super().__init__(f"{dropped} secret letter(s) exceeded the carrier line count")


@dataclass(frozen=True)
class WovenWord:
    """A visible unigram interleaved with an invisible payload."""

    surface: str


def weave_into_unigram(
    word: str, payload: str, strategy: str = "round_robin"
) -> WovenWord:
    """Distribute a zero-width stream between a word's grapheme clusters.

    ``round_robin`` cycles the insertion gaps left to right, handing each
    gap a contiguous run of payload units (runs differ in length by at most
    one) so that in-order extraction reproduces the payload exactly.
    ``after_first`` places the whole stream after the first cluster.
    Position 0 of the word never receives payload.
    """
    if not word:
        raise EmptyWord("cannot weave into an empty word")
    if POINT_PATTERN.search(word):
        raise ContaminatedWord(
            "carrier word already contains zero-width alphabet code points; "
            "strip it first"
        )
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")

    clusters = _GRAPHEME.findall(word)
    gaps = len(clusters)  # one gap after each cluster
    if strategy == "after_first":
        per_gap = [payload] + [""] * (gaps - 1)
    else:
        base, extra = divmod(len(payload), gaps)
        per_gap = []
        cursor = 0
        for gap in range(gaps):
            take = base + (1 if gap < extra else 0)
            per_gap.append(payload[cursor : cursor + take])
            cursor += take

    surface = "".join(
        cluster + inserted for cluster, inserted in zip(clusters, per_gap)
    )
    return WovenWord(surface=surface)


def secret_units(secret: str) -> list[str]:
    """Encode each secret letter as its own self-terminated stream.

    Each distinct letter is encoded once, in order of first occurrence, so
    the first unsupported character is the one reported.
    """
    streams = {
        letter: zwcodec.encode_message(letter) for letter in dict.fromkeys(secret)
    }
    return [streams[letter] for letter in secret]


def embed_linewise(
    lines: list[str], secret: str, strategy: str = "round_robin"
) -> list[str]:
    """Hide one secret letter per carrier line, inside the line's first word.

    Lines beyond the secret's length pass through byte-identical.  Blank or
    whitespace-only lines are skipped and consume no secret letter.  If the
    secret outlives the carrier, the surplus is dropped and a
    :class:`SecretOverflow` warning reports how many letters were lost.
    """
    units = secret_units(secret)
    output = []
    position = 0
    for line in lines:
        if position >= len(units):
            output.append(line)
            continue
        match = _FIRST_WORD.search(line)
        if match is None:
            output.append(line)
            continue
        woven = weave_into_unigram(match.group(), units[position], strategy)
        output.append(line[: match.start()] + woven.surface + line[match.end() :])
        position += 1
    if position < len(units):
        warnings.warn(SecretOverflow(len(units) - position), stacklevel=2)
    return output


def extract_linewise(lines: list[str]) -> str:
    """Recover the secret hidden by :func:`embed_linewise`, in line order.

    Each distinct line stream is decoded once.
    """
    letters = []
    decoded: dict[str, str] = {}
    for number, line in enumerate(lines, start=1):
        extracted = "".join(POINT_PATTERN.findall(line))
        if not extracted:
            continue
        letter = decoded.get(extracted)
        if letter is None:
            try:
                letter = decoded[extracted] = zwcodec.decode_stream(extracted)
            except MalformedStream as exc:
                raise MalformedStream(f"line {number}: {exc}") from exc
        letters.append(letter)
    return "".join(letters)


def embed_into_text(text: str, secret: str, strategy: str = "round_robin") -> str:
    """Line-wise embedding over a whole document, terminators preserved."""
    return "".join(embed_linewise(text.splitlines(keepends=True), secret, strategy))


def extract_from_text(text: str) -> str:
    """Inverse of :func:`embed_into_text`."""
    return extract_linewise(text.splitlines(keepends=True))
