"""Adversarial style transforms: translation drift, imitation, obfuscation.

Every builtin stage is a pure function of (input, seed, options), so a whole
experiment grid can be replayed bit-for-bit.  Real machine translation is
deliberately out of process: the translation stage's BackendSpec can point
at an external command or HTTP endpoint.  The builtin stages (synonym-pivot
drift, a character Markov chain, sentence shuffling) keep everything
runnable offline.

Transforms work on the text they are given and know nothing of zero-width
code points: :func:`stylocloak.pipeline.apply_config` strips its input once
on entry, and its style-model source once at training, before any stage runs.
"""

from __future__ import annotations

import json
import math
import random
import re
from bisect import bisect
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache
from importlib import resources
from itertools import accumulate, groupby

from . import DataError, StylocloakError, check_json_object
from .styloscope import default_function_words

# Captured, so that split() keeps the words at the odd indices.
_WORD = re.compile(r"([A-Za-z]+(?:'[A-Za-z]+)*)")
# The last whitespace character before a word that runs to the end.
_PARTIAL_WORD = re.compile(r"\s\S+\Z")
_SENTENCE_BOUNDARY = re.compile(r"(?<=[.?!])\s+")
_JITTER_TARGET = re.compile(r"([,;:]) ")

BACKEND_KINDS = ("builtin", "external-command", "http")

class BackendUnavailable(StylocloakError, RuntimeError):
    """The external transform backend failed or returned garbage."""

    exit_code = 3


class Timeout(BackendUnavailable):
    """The external transform backend did not answer in time."""


class CorpusTooSmall(DataError):
    """Style-model training text is not longer than the context order."""


@dataclass(frozen=True)
class BackendSpec:
    """Where a transform stage runs: in process, a command, or an endpoint."""

    kind: str = "builtin"
    target: str = ""
    timeout: float = 30.0

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise DataError(f"unknown backend kind {self.kind!r}")
        if self.kind != "builtin" and not self.target.strip():
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
    def parse(cls, value) -> "BackendSpec":
        """Read a spec: ``builtin``, ``cmd:<command>``, a URL or a run-file object.

        The object's keys are the fields, each typed by its default.
        """
        if isinstance(value, dict):
            types = {f.name: type(f.default) for f in fields(cls)}
            check_json_object(value, types, "backend")
            return cls(**value)
        if value == "builtin":
            return cls()
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
    data = resources.files("stylocloak").joinpath("data/synonyms.txt")
    table: dict[str, tuple[str, ...]] = {}
    for line in data.read_text(encoding="utf-8").splitlines():
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
    if not text:
        return []
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


def _substitute(text: str, rng: random.Random, rate: float) -> str:
    """Replace content words with dictionary synonyms at the given rate."""
    if rate <= 0.0:
        return text
    table = _substitution_candidates()
    parts = _WORD.split(text)
    for i in range(1, len(parts), 2):
        word = parts[i]
        candidates = table.get(word.lower())
        if candidates is None:
            continue
        if rate < 1.0 and rng.random() >= rate:
            continue
        parts[i] = _match_case(word, rng.choice(candidates))
    return "".join(parts)


def round_trip_translate(
    text: str,
    chain: tuple[str, ...] = (),
    backend: BackendSpec | None = None,
    seed: int = 0,
) -> str:
    """Push text through a pivot-language chain and back, or simulate it.

    With an external backend the chain is the list of pivot languages.  The
    builtin fallback ignores the chain and applies seeded synonym-pivot
    drift instead: every content word with a dictionary entry is replaced,
    which approximates the lexical churn of a real round trip without any
    claim of meaning preservation.
    """
    backend = backend or BackendSpec()
    if backend.kind != "builtin":
        if not chain:
            raise DataError("external translation requires a pivot chain")
        return call_backend(backend, text, chain, seed)
    return _substitute(text, random.Random(seed), rate=1.0)


def call_backend(
    backend: BackendSpec, text: str, chain: tuple[str, ...], seed: int
) -> str:
    """Invoke an external backend with the {text, chain, seed} JSON contract.

    A command backend gets the request on stdin and must print {"text": ...}
    on stdout; an HTTP backend gets a POST and must answer 200 with the same
    shape.  Anything else raises BackendUnavailable (or Timeout), and the
    caller must abort the stage rather than pass the input through.  A
    target or timeout that the client refuses (an unbalanced quote, a NUL
    byte, no URL scheme, a timeout out of range) raises DataError with the
    client's message.
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
            raise Timeout(f"command backend exceeded {backend.timeout}s") from exc
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
    elif backend.kind == "http":
        import http.client
        import urllib.error
        import urllib.request

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
            raise Timeout(f"http backend exceeded {backend.timeout}s") from exc
        except urllib.error.URLError as exc:
            if isinstance(getattr(exc, "reason", None), TimeoutError):
                raise Timeout(f"http backend exceeded {backend.timeout}s") from exc
            raise BackendUnavailable(f"http backend unreachable: {exc}") from exc
        except (ValueError, OverflowError, http.client.InvalidURL) as exc:
            raise DataError(str(exc)) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise BackendUnavailable(f"http backend failed: {exc}") from exc
    else:
        raise BackendUnavailable("builtin backend has no external contract")
    try:
        reply = json.loads(raw.decode("utf-8"))
        result = reply["text"]
    # UnicodeDecodeError is a ValueError; TypeError is a reply that is no object.
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise BackendUnavailable(f"backend reply is not {{'text': ...}}: {exc}") from exc
    if not isinstance(result, str):
        raise BackendUnavailable("backend reply 'text' is not a string")
    return result


@dataclass(frozen=True)
class StyleModel:
    """Character Markov chain over a training corpus.

    ``tables`` maps each context to its sampling table ``(followers,
    cumulative weights, total, n - 1)``, built once at training time.
    :func:`imitate` draws from it exactly as ``random.choices`` draws on its
    ``weights`` path, so sampling reproduces ``random.choices`` draw for draw
    (pinned by ``test_table_draw_matches_random_choices``).
    """

    order: int
    transitions: dict[str, dict[str, float]]
    tables: dict[str, tuple[tuple[str, ...], list[float], float, int]] = field(
        compare=False, repr=False
    )


def train_style_model(corpus_text: str, order: int = 3) -> StyleModel:
    """Count overlapping character windows and normalize to distributions."""
    if order < 1:
        raise DataError("order must be >= 1")
    size = len(corpus_text)
    if size <= order:
        raise CorpusTooSmall(
            f"training text has {size} characters, need more than {order}"
        )
    counts = Counter(corpus_text[i : i + order + 1] for i in range(size - order))
    transitions: dict[str, dict[str, float]] = {}
    tables = {}
    # Windows of one length sort by context, then by follower.
    for context, group in groupby(
        sorted(counts.items()), key=lambda item: item[0][:order]
    ):
        windows = list(group)
        total = sum(n for _, n in windows)
        followers = transitions[context] = {
            window[order]: n / total for window, n in windows
        }
        cum = list(accumulate(followers.values()))
        tables[context] = (tuple(followers), cum, cum[-1] + 0.0, len(cum) - 1)
    return StyleModel(order=order, transitions=transitions, tables=tables)


def imitate(model: StyleModel, length: int, seed: int = 0) -> str:
    """Sample text in the trained style, cut back to the last whole word.

    Deterministic for a fixed (model, length, seed).  Generation stops early
    if the chain walks into a context with no observed continuation.
    """
    if length <= 0:
        return ""
    if not model.transitions:
        raise ValueError("style model has no transitions")
    rng = random.Random(seed)
    draw = rng.random
    tables = model.tables
    context = rng.choice(sorted(model.transitions))
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
    rng = random.Random(seed)
    chunks = split_sentences(text)
    # A final fragment without a terminator stays pinned at the end: moving
    # it inward would merge it into the next sentence and change the count.
    movable = len(chunks)
    if chunks and chunks[-1].rstrip()[-1:] not in (".", "?", "!"):
        movable -= 1
    order = list(range(movable))
    if movable > 1:
        rng.shuffle(order)
    order += list(range(movable, len(chunks)))
    reordered = order != sorted(order)

    def process(chunk: str) -> str:
        result = _substitute(chunk, rng, rate)
        if jitter:
            result = _JITTER_TARGET.sub(
                lambda m: f" {m.group(1)} " if rng.random() < 0.5 else m.group(), result
            )
        return result

    pieces = [process(chunks[i]) for i in order]
    if reordered:
        # Chunks keep their own trailing whitespace; a piece that lost its
        # trailing run by moving to the former tail slot gets a space so the
        # following sentence still starts after whitespace.
        for idx in range(len(pieces) - 1):
            if not pieces[idx][-1:].isspace():
                pieces[idx] += " "
    return "".join(pieces)
