"""Zero-width Unicode codec: hide A-Z messages in invisible code points.

Four zero-width code points carry the payload: two act as binary digits,
one separates letters, one terminates the stream.  Each letter A-Z is
encoded as the minimal binary form of its alphabetical index (A=0 -> "0",
B=1 -> "1", ..., Z=25 -> "11001"); letters are delimited by the separator,
so variable-length codes need no prefix property.  The code points and the
codebook are fixed: :data:`POINTS` and :data:`CODEBOOK`.

No Unicode normalization is applied here, though the four points and a
woven payload survive all four forms: :func:`strip_zero_width` must give
back its input's exact code points, so text is raw code points throughout.
"""

from __future__ import annotations

import json
import string
from collections import namedtuple
from itertools import chain, pairwise, repeat

from . import DataError

BIT0 = "​"  # ZERO WIDTH SPACE
BIT1 = "‌"  # ZERO WIDTH NON-JOINER
SEP = "‍"   # ZERO WIDTH JOINER, delimits letters
END = "﻿"   # ZERO WIDTH NO-BREAK SPACE, terminates a stream


class UnsupportedCharacter(DataError):
    """A character outside A-Z and a-z was given to encode."""

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(
            f"unsupported character {char!r} (U+{ord(char):04X}) at position {position}"
        )


class MalformedStream(DataError):
    """A zero-width stream could not be decoded."""


#: The four payload code points.
POINTS = frozenset((BIT0, BIT1, SEP, END))

#: Letter -> minimal binary form of its alphabetical index: A="0", Z="11001".
CODEBOOK = {
    letter: format(index, "b") for index, letter in enumerate(string.ascii_uppercase)
}
_LETTERS = {bits: letter for letter, bits in CODEBOOK.items()}
#: CODEBOOK keyed by each letter in both cases: what can be encoded.  Not
#: ``char.upper()``, which maps U+0131 and U+017F onto I and S.
CASED_CODEBOOK = {**CODEBOOK, **{k.lower(): bits for k, bits in CODEBOOK.items()}}


def _find_points(text: str | bytes) -> dict[str, list[int]]:
    """Where each payload point occurs in a str, or in its UTF-8 bytes.

    Maps each point, in sorted order, to the ascending start of each of its
    occurrences.  Each point gets one C-level ``find`` sweep; a point is one
    code point, so no two occurrences overlap.  UTF-8 is self-synchronising,
    so a match in bytes always starts at a character boundary.

    Each hit costs a Python-level step, where a regex pass costs per
    character: callers are faster than a regex pass on texts whose points
    are sparse (carriers), and slower on point-dense ones (bare streams).
    """
    encoded = isinstance(text, bytes)
    hits = {}
    for point in sorted(POINTS):
        needle = point.encode("utf-8") if encoded else point
        found = []
        start = text.find(needle)
        while start >= 0:
            found.append(start)
            start = text.find(needle, start + 1)
        hits[point] = found
    return hits


def _point_starts(text: str) -> list[int]:
    """The start of every payload point in ``text``, in text order."""
    return sorted(chain.from_iterable(_find_points(text).values()))


def encode_message(plaintext: str) -> str:
    """Encode a letter sequence into a pure zero-width stream.

    A letter may be in either case.  Each letter's bit-string is emitted as
    bit0/bit1 code points, letters are joined with the separator, and the
    stream ends with exactly one end marker.  Empty input yields a stream
    containing only the end marker.  A character that is not A-Z or a-z
    raises :class:`UnsupportedCharacter`.
    """
    groups = []
    for position, char in enumerate(plaintext):
        bits = CASED_CODEBOOK.get(char)
        if bits is None:
            raise UnsupportedCharacter(position, char)
        groups.append(bits)
    return SEP.join(groups).replace("0", BIT0).replace("1", BIT1) + END


def decode_stream(stream: str) -> str:
    """Decode a zero-width stream back into uppercase letters.

    The stream is read up to the first end marker; letters are recovered by
    splitting on the separator and looking each bit-group up in the reverse
    codebook.  Raises :class:`MalformedStream` for a foreign code point,
    a missing end marker, or an unknown bit-group.
    """
    if sum(stream.count(p) for p in POINTS) != len(stream):
        sample = sorted(set(stream) - POINTS)[0]
        raise MalformedStream(
            f"foreign code point U+{ord(sample):04X} in stream"
        )
    body, end_marker, _ = stream.partition(END)
    if not end_marker:
        raise MalformedStream("stream does not contain an end marker")
    if not body:
        return ""
    bit_text = body.replace(BIT0, "0").replace(BIT1, "1")
    letters = []
    for bits in bit_text.split(SEP):
        letter = _LETTERS.get(bits)
        if letter is None:
            raise MalformedStream(f"unknown bit-group {bits!r}")
        letters.append(letter)
    return "".join(letters)


def strip_zero_width(text: str) -> tuple[str, str]:
    """Split text into (clean, extracted): visible carrier and payload.

    The extracted stream preserves the original relative order of the
    payload code points; interleaving clean and extracted at their original
    offsets reconstructs the input exactly.
    """
    starts = _point_starts(text)
    # The text between consecutive points, joined once.
    cuts = [-1, *starts, len(text)]
    clean = "".join([text[a + 1 : b] for a, b in pairwise(cuts)])
    return clean, "".join(map(text.__getitem__, starts))


class ScanReport(namedtuple("ScanReport", "counts offsets verdict")):
    """Occurrence report for zero-width code points in a text.

    ``counts`` maps each point to its occurrences, ``offsets`` lists
    ``(byte offset, point)`` pairs in text order, and ``verdict`` says
    whether any point was found.  A named tuple, not a dataclass, like the
    package's other frozen value types: no command imports
    :mod:`dataclasses` and the :mod:`inspect` machinery behind it.
    """

    __slots__ = ()

    def to_json(self) -> str:
        payload = {
            "counts": {f"U+{ord(c):04X}": n for c, n in sorted(self.counts.items())},
            "offsets": [[off, f"U+{ord(c):04X}"] for off, c in self.offsets],
            "verdict": self.verdict,
        }
        return json.dumps(payload, sort_keys=True)


def scan_text(text: str) -> ScanReport:
    """Locate every payload code point; offsets are UTF-8 byte positions.

    The text is encoded once and searched as bytes.  A lone surrogate
    cannot be encoded and raises :class:`UnicodeEncodeError`.
    """
    hits = _find_points(text.encode("utf-8"))
    offsets = sorted(
        chain.from_iterable(zip(found, repeat(point)) for point, found in hits.items())
    )
    return ScanReport(
        counts={point: len(found) for point, found in hits.items()},
        offsets=offsets,
        verdict=bool(offsets),
    )


def read_text_file(path) -> str:
    """Read a UTF-8 file as raw code points, without newline translation.

    A leading U+FEFF is *not* stripped: it would be indistinguishable from
    payload content, and well-formed carriers never start with one.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return handle.read()


def write_text_file(path, text: str) -> None:
    """Write UTF-8 without newline translation; refuse a leading U+FEFF.

    A byte-order mark at file start would collide with the end-marker code
    point, so texts that begin with U+FEFF are rejected outright.  A
    character decoded from a non-UTF-8 file name is written back as its
    byte, as the CLI writes it to stdout.
    """
    if text.startswith(END):
        raise MalformedStream(
            "refusing to write text starting with U+FEFF: "
            "a leading byte-order mark would be indistinguishable from payload"
        )
    with open(
        path, "w", encoding="utf-8", errors="surrogateescape", newline=""
    ) as handle:
        handle.write(text)
