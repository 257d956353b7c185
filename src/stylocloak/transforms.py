"""Adversarial style transforms: translation drift, imitation, obfuscation.

Every builtin stage is a pure function of (input, seed, options), so a whole
experiment grid can be replayed bit-for-bit.  Real machine translation is
deliberately out of process: the translation stage's BackendSpec points at
an external command or HTTP endpoint, and no spec means the builtin stage.
The builtin stages (synonym-pivot drift, a character Markov chain, sentence
shuffling) keep everything runnable offline.

Transforms work on the text they are given and know nothing of zero-width
code points: the grid's one walk, ``stylocloak.pipeline._walk``, strips the
text it walks on entry, and its style-model source at training.
An external backend's reply, the one text a stage takes from outside, is
stripped by :func:`call_backend` as it arrives.
"""

from __future__ import annotations

import json
import math
import random
import re
from bisect import bisect
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import accumulate, repeat
from operator import itemgetter, truediv

from . import DataError, StylocloakError, _bundled_text, _CheckedTuple
from . import check_json_object
from .styloscope import _TOKEN, _window_counts, default_function_words
from .zwcodec import strip_zero_width

# The tokenizer's word, captured, so that split() keeps the words at the odd
# indices: a stage rewrites only whole tokens, and only ASCII ones.
_WORD = re.compile(f"({_TOKEN.pattern})")
# The last whitespace character before a word that runs to the end.
_PARTIAL_WORD = re.compile(r"\s\S+\Z")
_SENTENCE_BOUNDARY = re.compile(r"[.?!]\s+")
_JITTER_TARGET = re.compile(r"([,;:]) ")

BACKEND_KINDS = ("external-command", "http")

class BackendUnavailable(StylocloakError, RuntimeError):
    """The external transform backend failed or returned garbage."""

    exit_code = 3


class CorpusTooSmall(DataError):
    """Style-model training text is not longer than the context order."""


class BackendSpec(_CheckedTuple, namedtuple(
    "BackendSpec", "kind target timeout", defaults=("", 30.0)
)):
    """An external backend for the translation stage: a command or an endpoint."""

    __slots__ = ()

    def _check(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise DataError(f"unknown backend kind {self.kind!r}")
        if not self.target.strip():
            raise DataError(f"backend kind {self.kind!r} requires a target")
        if not 0 < self.timeout < math.inf:
            raise DataError(
                f"backend timeout must be a positive finite number of seconds, "
                f"got {self.timeout!r}"
            )
        if self.timeout > 86400:
            raise DataError(
                f"backend timeout must be at most 86400 seconds (one day), "
                f"got {self.timeout!r}"
            )

    @classmethod
    def parse(cls, value) -> "BackendSpec | None":
        """Read a spec: ``cmd:<command>``, a URL or a run-file object.

        ``builtin`` is the builtin stage, which is no spec: it reads as None.
        The object's keys are the fields, and it must hold ``kind``.
        """
        if isinstance(value, dict):
            types = {"kind": str, "target": str, "timeout": float}
            check_json_object(value, types, "backend")
            if "kind" not in value:
                raise DataError("backend object lacks the key 'kind'")
            return cls(**value)
        if value == "builtin":
            return None
        if isinstance(value, str) and value.startswith("cmd:"):
            return cls(kind="external-command", target=value[4:])
        if isinstance(value, str) and value.startswith(("http://", "https://")):
            return cls(kind="http", target=value)
        raise DataError(f"cannot parse backend spec {value!r}")


@lru_cache(maxsize=1)
def load_synonyms() -> dict[str, tuple[str, ...]]:
    """The bundled synonym table as word -> substitution candidates.

    Groups are symmetric: every single-word member maps to the other members
    of its group (two-word phrases appear only as substitutions).  The first
    group to claim a word wins.
    """
    table: dict[str, tuple[str, ...]] = {}
    for line in _bundled_text("synonyms.txt").splitlines():
        members = [m.strip() for m in line.split(",") if m.strip()]
        for member in members:
            if " " in member or member in table:
                continue
            table[member] = tuple(m for m in members if m != member)
    return table


def _match_case(template: str, word: str) -> str:
    if template.isupper() and len(template) > 1:
        return word.upper()
    if template[:1].isupper():
        return word[:1].upper() + word[1:]
    return word


def split_sentences(text: str) -> list[str]:
    """Lossless sentence partition: breaks after [.?!] followed by whitespace.

    Each chunk keeps its trailing whitespace, so ``"".join`` restores the
    input exactly.  Abbreviations are not special-cased.
    """
    chunks = []
    start = 0
    for boundary in _SENTENCE_BOUNDARY.finditer(text):
        chunks.append(text[start : boundary.end()])
        start = boundary.end()
    if start < len(text):
        chunks.append(text[start:])
    return chunks


@lru_cache(maxsize=1)
def _substitution_candidates() -> dict[str, tuple[str, ...]]:
    """The synonym table without function words and words lacking candidates."""
    function_words = frozenset(default_function_words())
    return {
        word: candidates
        for word, candidates in load_synonyms().items()
        if candidates and word not in function_words
    }


def _below(getrandbits, n: int) -> int:
    """A uniform int in ``range(n)``, 0 for ``n == 0``: exactly
    ``random.Random._randbelow_with_getrandbits``, which draws
    ``n.bit_length()`` bits until they fall below ``n``."""
    if not n:
        return 0
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _substitute(text: str, rng: random.Random, rate: float, subs: list) -> str:
    """Replace content words with dictionary synonyms at the given rate.

    Appends each substitution's ``(word, table entry)`` to ``subs``.
    """
    if rate <= 0.0:
        return text
    table = _substitution_candidates()
    getrandbits = rng.getrandbits
    parts = _WORD.split(text)
    for i in range(1, len(parts), 2):
        word = parts[i]
        candidates = table.get(word.lower())
        if candidates is None or not word.isascii():
            continue
        if rate < 1.0 and rng.random() >= rate:
            continue
        entry = candidates[_below(getrandbits, len(candidates))]
        parts[i] = _match_case(word, entry)
        subs.append((word, entry))
    return "".join(parts)


def round_trip_translate(
    text: str,
    chain: tuple[str, ...] = (),
    backend: BackendSpec | None = None,
    seed: int = 0,
) -> str:
    """Push text through a pivot-language chain and back, or simulate it.

    With an external backend the chain is the list of pivot languages.
    Without one, the builtin stage ignores the chain and applies seeded
    synonym-pivot drift instead: every content word with a dictionary entry
    is replaced, which approximates the lexical churn of a real round trip
    without any claim of meaning preservation.
    """
    return _translated(text, chain, backend, seed)[0]


def _translated(
    text: str, chain: tuple[str, ...], backend: BackendSpec | None, seed: int
) -> tuple[str, list | None]:
    """:func:`round_trip_translate`'s text, with the ``(word, table entry)``
    pair of each substitution, or None for a backend's reply."""
    if backend is not None:
        if not chain:
            raise DataError("external translation requires a pivot chain")
        return call_backend(backend, text, chain, seed), None
    subs: list = []
    return _substitute(text, random.Random(seed), 1.0, subs), subs


def call_backend(
    backend: BackendSpec, text: str, chain: tuple[str, ...], seed: int
) -> str:
    """Invoke an external backend with the {text, chain, seed} JSON contract.

    A command backend gets the request on stdin and must print {"text": ...}
    on stdout; an HTTP backend gets a POST and must answer 200 with the same
    shape.  The reply's text is returned stripped of zero-width content, as
    every other text is stripped where it enters.  Anything else raises
    BackendUnavailable, a timeout included, and the caller must abort the
    stage rather than pass the input through.  A target or timeout that the
    client refuses (an unbalanced quote, a NUL byte, no URL scheme, a
    timeout out of range) raises DataError with the client's message.
    """
    request = json.dumps({"text": text, "chain": list(chain), "seed": seed})
    # Each branch imports its own client, so that only a run that calls an
    # external backend loads subprocess or urllib.
    if backend.kind == "external-command":
        import shlex
        import subprocess

        try:
            proc = subprocess.run(
                shlex.split(backend.target),
                input=request.encode("utf-8"),
                capture_output=True,
                timeout=backend.timeout,
            )
        except subprocess.TimeoutExpired as exc:
            late = f"command backend exceeded {backend.timeout}s"
            raise BackendUnavailable(late) from exc
        except OSError as exc:
            raise BackendUnavailable(f"cannot run backend command: {exc}") from exc
        except (ValueError, OverflowError) as exc:
            raise DataError(str(exc)) from exc
        if proc.returncode != 0:
            raise BackendUnavailable(
                f"backend command exited {proc.returncode}: "
                f"{proc.stderr.decode('utf-8', 'replace').strip()}"
            )
        raw = proc.stdout
    else:
        import http.client
        import urllib.error
        import urllib.request

        late = f"http backend exceeded {backend.timeout}s"
        try:
            req = urllib.request.Request(
                backend.target,
                data=request.encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=backend.timeout) as resp:
                if resp.status != 200:
                    raise BackendUnavailable(f"backend returned HTTP {resp.status}")
                raw = resp.read()
        except TimeoutError as exc:
            raise BackendUnavailable(late) from exc
        except urllib.error.HTTPError as exc:
            exc.close()
            raise BackendUnavailable(f"backend returned HTTP {exc.code}") from exc
        except urllib.error.URLError as exc:
            if isinstance(getattr(exc, "reason", None), TimeoutError):
                raise BackendUnavailable(late) from exc
            raise BackendUnavailable(f"http backend unreachable: {exc}") from exc
        except (ValueError, OverflowError, http.client.InvalidURL) as exc:
            raise DataError(str(exc)) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise BackendUnavailable(f"http backend failed: {exc}") from exc
    try:
        reply = json.loads(raw.decode("utf-8"))
        result = reply["text"]
    # UnicodeDecodeError is a ValueError; TypeError is a reply that is no object.
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise BackendUnavailable(f"backend reply is not {{'text': ...}}: {exc}") from exc
    if not isinstance(result, str):
        raise BackendUnavailable("backend reply 'text' is not a string")
    return strip_zero_width(result)[0]


class StyleModel(namedtuple("StyleModel", "order tables")):
    """Character Markov chain over a training corpus.

    ``tables`` maps each context of ``order`` characters to its sampling
    table ``(followers, cumulative weights, total, n - 1)``: the followers
    in sorted order and the running sums of their probabilities, which are
    the model's only record of its distribution.  :func:`imitate` draws
    from it exactly as ``random.choices`` draws on its ``weights`` path, so
    sampling reproduces ``random.choices`` draw for draw (pinned by
    ``test_table_draw_matches_random_choices``).
    """

    __slots__ = ()


def train_style_model(corpus_text: str, order: int = 3) -> StyleModel:
    """Count overlapping character windows and build each context's table."""
    if order < 1:
        raise DataError("order must be >= 1")
    size = len(corpus_text)
    if size <= order:
        raise CorpusTooSmall(
            f"training text has {size} characters, need more than {order}"
        )
    counts = _window_counts(corpus_text, order + 1)
    # Windows of one length sort by context, then by follower, so each
    # context's windows are one index range, as long as its window count.
    windows = sorted(counts)
    followers = list(map(itemgetter(order), windows))
    contexts = Counter(map(itemgetter(slice(order)), windows))
    tables = {}
    start = 0
    for context, end in zip(contexts, accumulate(contexts.values())):
        if end - start == 1:
            # A lone follower's n / n is exactly 1.0; skipping the general
            # branch's calls matters, as most contexts have one.
            tables[context] = ((followers[start],), [1.0], 1.0, 0)
        else:
            window_counts = list(map(counts.__getitem__, windows[start:end]))
            total = sum(window_counts)
            cum = list(accumulate(map(truediv, window_counts, repeat(total))))
            chars = tuple(followers[start:end])
            tables[context] = (chars, cum, cum[-1] + 0.0, len(cum) - 1)
        start = end
    return StyleModel(order=order, tables=tables)


def imitate(model: StyleModel, length: int, seed: int = 0) -> str:
    """Sample text in the trained style, cut back to the last whole word.

    Deterministic for a fixed (model, length, seed).  Generation stops early
    if the chain walks into a context with no observed continuation.
    """
    if length <= 0:
        return ""
    tables = model.tables
    if not tables:
        raise ValueError("style model has no transitions")
    rng = random.Random(seed)
    draw = rng.random
    context = sorted(tables)[_below(rng.getrandbits, len(tables))]
    out = [context]
    for _ in range(length - len(context)):
        table = tables.get(context)
        if table is None:
            break
        chars, cum, total, hi = table
        char = chars[bisect(cum, draw() * total, 0, hi)]
        out.append(char)
        context = context[1:] + char
    return _PARTIAL_WORD.sub("", "".join(out)[:length]).rstrip()


def obfuscate(
    text: str,
    seed: int = 0,
    rate: float = 0.3,
    jitter: bool = False,
) -> str:
    """Shuffle sentence order and swap in synonyms at the given rate.

    Optional punctuation jitter pads a space before commas/semicolons that
    already have one after them.  Within each sentence the word multiset is
    preserved except for substituted synonyms, and the sentence count never
    changes.  Returns the input unchanged when nothing fired.
    """
    return _obfuscated(text, seed, rate, jitter)[0]


def _obfuscated(text: str, seed: int, rate: float, jitter: bool) -> tuple[str, list]:
    """:func:`obfuscate`'s text, with the ``(word, table entry)`` pair of each
    substitution."""
    rng = random.Random(seed)
    subs: list = []
    chunks = split_sentences(text)
    # A final fragment without a terminator stays pinned at the end: moving
    # it inward would merge it into the next sentence and change the count.
    movable = len(chunks)
    if chunks and chunks[-1].rstrip()[-1:] not in (".", "?", "!"):
        movable -= 1
    order = list(range(movable))
    for i in range(movable - 1, 0, -1):
        j = _below(rng.getrandbits, i + 1)
        order[i], order[j] = order[j], order[i]
    order += list(range(movable, len(chunks)))

    def process(chunk: str) -> str:
        result = _substitute(chunk, rng, rate, subs)
        if jitter:
            result = _JITTER_TARGET.sub(
                lambda m: f" {m.group(1)} " if rng.random() < 0.5 else m.group(), result
            )
        return result

    pieces = [process(chunks[i]) for i in order]
    # Chunks keep their own trailing whitespace; a piece that lost its
    # trailing run by moving to the former tail slot gets a space so the
    # following sentence still starts after whitespace.
    for idx in range(len(pieces) - 1):
        if not pieces[idx][-1:].isspace():
            pieces[idx] += " "
    return "".join(pieces), subs
