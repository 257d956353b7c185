"""Run the 15-configuration transform grid and report stylometric impact.

Configuration IDs are frozen to the canonical enumeration so that a
discussion of, say, "config 3" always means obfuscation-only:

     1 imitation                        9 steganography+imitation
     2 translation                     10 steganography+translation
     3 obfuscation                     11 steganography+obfuscation
     4 imitation+translation           12 steganography+imitation+translation
     5 imitation+obfuscation           13 steganography+imitation+obfuscation
     6 translation+obfuscation         14 steganography+translation+obfuscation
     7 imitation+translation+          15 all four
       obfuscation
     8 steganography

A config's stage set follows from its id alone, and its stages always
execute in the fixed order translation -> imitation -> obfuscation ->
steganography.  A stage is seeded by the stages run so far
(:func:`stage_seed`), so the configs are the 15 nodes of a trie of stage
prefixes: stripped, config x + 8 is config x, and config 8 the candidate.

A node is its text, its parent and its record, what its bag of words
needs from its parent's: translation, imitation and obfuscation share one
function, :func:`_shaped`.  Steganography runs last and no config extends
it, so it is the trie's leaf, the first-word edits of
:func:`~stylocloak.weaver.embed_linewise` (the weaver alone cuts lines),
and the only stage that drops payload letters.  One generator, :func:`_walk`,
walks the trie and runs each leaf; :func:`run_matrix` and
:func:`apply_config` both read it.  ``run_matrix`` scores each distinct
text once, and counts every node from its parent's bag of words and its
record or edits: of a grid's texts it counts whole only the candidate,
each generated text and each backend reply, and of each leaf its words.

Zero-width content is handled once, where text enters: :func:`_walk`
strips the text it walks and its imitation source on entry, and an external
backend's reply is stripped as it arrives, so neither caller strips what it
walks.  ``run_matrix`` with ``strip=True`` also measures stripped copies of
the candidate, the reference and every transformed text, modelling an
analyst who sanitizes input first; a clean document is its own copy.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, namedtuple
from pathlib import Path

from . import DataError, StylocloakError, _CheckedTuple, check_json_object
from . import transforms, weaver
from .styloscope import _DELTA_K, Corpus, Document, _count_words, _scored
from .styloscope import fit_delta_reference, load_corpus, render_table, tokenize
from .transforms import BackendSpec, StyleModel
from .zwcodec import read_text_file, strip_zero_width

CANONICAL_ORDER = ("translation", "imitation", "obfuscation", "steganography")

CONFIG_STAGES: dict[int, tuple[str, ...]] = {
    1: ("imitation",),
    2: ("translation",),
    3: ("obfuscation",),
    4: ("translation", "imitation"),
    5: ("imitation", "obfuscation"),
    6: ("translation", "obfuscation"),
    7: ("translation", "imitation", "obfuscation"),
    8: ("steganography",),
    9: ("imitation", "steganography"),
    10: ("translation", "steganography"),
    11: ("obfuscation", "steganography"),
    12: ("translation", "imitation", "steganography"),
    13: ("imitation", "obfuscation", "steganography"),
    14: ("translation", "obfuscation", "steganography"),
    15: ("translation", "imitation", "obfuscation", "steganography"),
}


class StageError(StylocloakError, RuntimeError):
    """A stage failed on its input; carries the stage, the cause and its exit code."""

    def __init__(self, stage: str, cause: StylocloakError):
        self.stage = stage
        self.cause = cause
        self.exit_code = cause.exit_code
        super().__init__(f"stage {stage!r} failed: {cause}")


class PipelineConfig(_CheckedTuple, namedtuple(
    "PipelineConfig",
    "id seed payload translation_backend chain"
    " substitution_rate punctuation_jitter imitation_ratio model_order",
    defaults=(0, "", None, (), 0.3, False, 0.25, 3),
)):
    """One cell of the experiment grid: a config id plus its knobs.

    ``translation_backend`` is a :class:`~stylocloak.transforms.BackendSpec`,
    or None for the builtin one, and ``chain`` the translation stage's pivot
    languages, none blank, since a backend would be sent it.  Every field is
    checked, whether or not the config runs a stage that reads it.
    """

    __slots__ = ()

    def _check(self) -> None:
        # The rate is a chance per word, and imitation appends round(ratio *
        # len(text)) characters: bound both.  An int is finite, and
        # math.isfinite cannot take one too large for a float.
        for name in ("substitution_rate", "imitation_ratio"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
            if not 0 <= value <= 1:
                raise DataError(f"{name} must be in [0, 1], got {value}")
        if not all(pivot.strip() for pivot in self.chain):
            raise DataError(f"chain holds an empty pivot language: {list(self.chain)}")
        if self.model_order < 1:
            raise DataError(f"model_order must be >= 1, got {self.model_order}")
        if self.id not in CONFIG_STAGES:
            raise DataError(f"config id must be 1..15, got {self.id}")
        weaver.secret_units(self.payload)

    @property
    def stages(self) -> tuple[str, ...]:
        """The id's stage set, in canonical order."""
        return CONFIG_STAGES[self.id]


def make_configs(ids, given: dict) -> list[PipelineConfig]:
    """The configs ``ids``, built from the grid inputs a user gave.

    ``given`` maps :class:`PipelineConfig` fields but ``id`` to values, with
    ``backend`` (what :meth:`~stylocloak.transforms.BackendSpec.parse`
    reads) for ``translation_backend`` and ``chain`` any sequence.  An input
    it leaves out takes its field's default, and any other key is a
    ``TypeError``.  An empty value counts as given, and is checked even when
    ``ids`` is empty.
    """
    fields = dict(given)
    if "backend" in fields:
        fields["translation_backend"] = BackendSpec.parse(fields.pop("backend"))
    if "chain" in fields:
        fields["chain"] = tuple(fields["chain"])
    template = PipelineConfig(min(CONFIG_STAGES), **fields)
    return [template._replace(id=cid) for cid in ids]


def stage_seed(base_seed: int, prefix: tuple[str, ...]) -> int:
    """Stable seed of the stage ``prefix[-1]``, run after ``prefix[:-1]``."""
    digest = hashlib.sha256(f"{base_seed}:{'+'.join(prefix)}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def apply_config(
    text: str, config: PipelineConfig, imitation_source: str | None = None
) -> tuple[str, int]:
    """Run the configured stages over the text in canonical order.

    A walk of one config, so the text is stripped of zero-width content on
    entry.  The imitation stage trains on ``imitation_source``, stripped,
    or on the stripped ``text`` (not as translated) when that is None.  An
    empty stage set strips and changes nothing else.  Returns the text,
    the one :func:`run_matrix` scores for the config, and the number of
    payload letters dropped because the carrier ran out of lines.  A stage
    that fails on its input raises :class:`StageError`; any other exception
    is a bug and propagates as is.
    """
    [(_, node, edits, dropped)] = _walk(text, [config], imitation_source)
    if isinstance(node, StageError):
        raise node from node.cause
    return weaver._spliced(node.text, edits), dropped


#: A trie node: its text, its parent node and its record, which is what
#: :func:`_bag_of` needs, or None for the root and a backend's reply.
_Node = namedtuple("_Node", "text parent record")


def _shaped(stage: str, text: str, config: PipelineConfig, seed: int, model):
    """The text after the shaping stage ``stage``, run with ``seed``, and its record.

    ``model(order)`` gives the imitation stage its style model.
    """
    if stage == "translation":
        backend = config.translation_backend
        return transforms._translated(text, config.chain, backend, seed)
    if stage == "imitation":
        generated = transforms.imitate(
            model(config.model_order), round(len(text) * config.imitation_ratio), seed
        )
        return " ".join(filter(None, (text, generated))), generated
    rate, jitter = config.substitution_rate, config.punctuation_jitter
    return transforms._obfuscated(text, seed, rate, jitter)


def _walk(text: str, configs, imitation_source: str | None):
    """Walk the configs' trie from ``text``, stripped: one tuple per config.

    Each is ``(config, node, edits, dropped)``: the config's last shaping
    :class:`_Node` (the root, of the stripped text, if it has none), or the
    :class:`StageError` of the stage that failed; then, for a config ending
    in steganography, the leaf's word edits and the payload letters it
    dropped, else ``()`` and 0.  A node is keyed by
    its prefix and every config field but id and payload; each runs once
    per walk, as does each style model, keyed by its order and trained on
    the imitation source (``text`` if None), stripped on entry.  The leaf
    never fails: no shaping node holds a point.
    """
    text = strip_zero_width(text)[0]
    source = text if imitation_source is None else strip_zero_width(imitation_source)[0]
    memo: dict = {}

    def model(order: int) -> StyleModel:
        if order not in memo:
            memo[order] = transforms.train_style_model(source, order)
        return memo[order]

    root = _Node(text, None, None)
    for config in configs:
        stages = config.stages
        leaf = stages[-1] == "steganography"
        node = root
        for depth, stage in enumerate(stages[:-1] if leaf else stages, 1):
            key = (stages[:depth], (config.seed, *config[3:]))
            if key not in memo:
                seed = stage_seed(config.seed, key[0])
                try:
                    shaped, record = _shaped(stage, node.text, config, seed, model)
                    memo[key] = _Node(shaped, node, record)
                except StylocloakError as exc:
                    memo[key] = StageError(stage, exc)
            node = memo[key]
            if isinstance(node, StageError):
                break
        edits, dropped = (), 0
        if leaf and not isinstance(node, StageError):
            edits, dropped = weaver._woven_words(node.text, config.payload)
        yield config, node, edits, dropped


def _swapped(parent: Counter, removed, added) -> Counter:
    """A copy of ``parent`` less the tokens ``removed``, plus those ``added``.

    Each is a list of tokens or a Counter of them.
    """
    bag = parent.copy()
    # Counter.subtract loops in Python over its argument: count it in C first.
    bag.subtract(Counter(removed))
    bag.update(added)
    return bag


def _bag_of(node: _Node, bags: dict) -> Counter:
    """The node's bag of words, kept in ``bags`` by text.

    A node with no record is counted whole; any other from its parent's bag,
    found the same way.  No token spans whitespace, nor does lowercasing
    look across it, Greek final sigma included.  So imitation, which
    appends its generated text after one space, adds that text's tokens.  A
    substitution swaps an ASCII token for a table entry, lowercase ASCII
    words in the token's case: it removes the lowered word and adds the
    entry's words.  Both begin and end with a cased letter, and only U+0130,
    a word character, lowers to a non-word one, so no neighbouring token
    changes.  Moves, pads and jitter touch only whitespace.  Counts are
    ints, so they equal a count of the node's text exactly.
    """
    text, parent, record = node
    if text not in bags:
        if record is None:
            bags[text] = _count_words(text)
        elif isinstance(record, str):
            bags[text] = _swapped(_bag_of(parent, bags), (), _count_words(record))
        else:
            removed = [word.lower() for word, _ in record]
            added = " ".join(entry for _, entry in record).split()
            bags[text] = _swapped(_bag_of(parent, bags), removed, added)
    return bags[text]


def _woven_bag(parent: Counter, edits) -> Counter:
    """A steganography leaf's bag of words, from its parent's and its edits.

    Each edit swaps one whitespace-delimited word for its woven form, so,
    as in :func:`_bag_of`, the leaf's tokens are its parent's minus those
    of each word plus those of each woven word.  These few words are
    tokenized, not counted by :func:`~stylocloak.styloscope._count_words`:
    a woven word holds points, so it is never a whole token, and on a
    grid's 8 leaves counting took over a third longer.
    """
    removed = tokenize(" ".join(e[1] for e in edits))
    return _swapped(parent, removed, tokenize(" ".join(e[2] for e in edits)))


class MatrixRow(
    namedtuple(
        "MatrixRow",
        "config author delta_adversarial delta_reference"
        " probability_adversarial probability_reference delta_change",
    )
):
    """One (config, author) cell of the comparison matrix."""

    __slots__ = ()


class MatrixReport(
    namedtuple("MatrixReport", "rows errors metadata warnings", defaults=((),))
):
    """A grid's rows, with the facts that replay the run (``metadata``).

    ``errors`` holds a dict per aborted config, and ``warnings`` one per
    payload cut short by a carrier with too few lines.
    """

    __slots__ = ()


def run_matrix(
    candidate: Document,
    reference: Corpus,
    configs: list[PipelineConfig],
    k: int = _DELTA_K,
    strip: bool = False,
    imitation_source: str | None = None,
) -> MatrixReport:
    """Transform the candidate under every config and score both versions.

    The reference columns come from the untransformed candidate, so they are
    constant across configs for each author.  With ``strip`` the candidate,
    the reference and each transformed text are measured as stripped copies,
    a clean document being its own; each is scored from its cached bag of
    words, so a reference reused across calls is counted once.
    The reference is fitted once, and each style model and stage prefix
    runs at most once per call.  The walk strips the candidate on entry.
    Every node is counted once, by :func:`_bag_of` from its parent's bag
    of words and its record; the root (the stripped candidate) takes the
    base's cached bag when the two are one text.  Each distinct text is
    scored once, from its bag: a node whose text equals the base's, or an
    earlier node's, takes that score.  A
    steganography leaf is scored from the bag :func:`_woven_bag` derives
    from its parent's and its edits, never counted whole; stripped, it is
    its parent, and takes its parent's score.  Every score equals
    :func:`~stylocloak.styloscope.score_delta` on the config's text, float
    for float.  A config whose stage fails is recorded under ``errors``
    (status "aborted") and the rest of the grid still runs; a failed
    external backend is never silently replaced by the builtin fallback.  A
    payload cut short by a carrier with too few lines is recorded under
    ``warnings``.
    """
    fitted = fit_delta_reference(reference.stripped() if strip else reference, k)
    base = candidate.stripped() if strip else candidate
    base_report = _scored(fitted, base.counts())
    # Each node text's bag of words and each measured text's score.
    bags = {base.text: base.counts()}
    scores = {base.text: base_report}
    rows: list[MatrixRow] = []
    errors: list[dict] = []
    overflows: list[dict] = []
    walk = _walk(candidate.text, configs, imitation_source)
    for config, node, edits, dropped in walk:
        if isinstance(node, StageError):
            errors.append(
                {
                    "config": config.id,
                    "stage": node.stage,
                    "status": "aborted",
                    "error": str(node.cause),
                }
            )
            continue
        if node.text not in scores:
            scores[node.text] = _scored(fitted, _bag_of(node, bags))
        adv_report = scores[node.text]
        if dropped:
            overflows.append(
                {"config": config.id, "stage": "steganography", "dropped": dropped}
            )
        if edits and not strip:
            adv_report = _scored(fitted, _woven_bag(_bag_of(node, bags), edits))
        for author in sorted(base_report.deltas):
            rows.append(
                MatrixRow(
                    config=config.id,
                    author=author,
                    delta_adversarial=adv_report.deltas[author],
                    delta_reference=base_report.deltas[author],
                    probability_adversarial=adv_report.probabilities[author],
                    probability_reference=base_report.probabilities[author],
                    delta_change=base_report.deltas[author]
                    - adv_report.deltas[author],
                )
            )
    metadata = {
        "config_ids": [c.id for c in configs],
        "seeds": {str(c.id): c.seed for c in configs},
        "payload": configs[0].payload if configs else "",
        "backends": {
            str(c.id): {"translation": f"{b.kind}:{b.target}"}
            for c in configs
            if (b := c.translation_backend)
        },
        "k": k,
        "strip": strip,
        "reference_hash": reference.content_hash(),
        "candidate_hash": hashlib.sha256(candidate.text.encode("utf-8")).hexdigest(),
    }
    return MatrixReport(tuple(rows), tuple(errors), metadata, tuple(overflows))


_MATRIX_COLUMNS = [
    ("config", "Config", ""),
    ("author", "Author", ""),
    ("delta_adversarial", "Burrows' Delta (adversarial)", ".4f"),
    ("delta_reference", "Burrows' Delta (reference)", ".4f"),
    ("probability_adversarial", "P(adversarial)", ".6f"),
    ("probability_reference", "P(reference)", ".6f"),
    ("delta_change", "Delta change", ".4f"),
]


def emit_report(report: MatrixReport, fmt: str = "json") -> str:
    """Serialize a matrix report; field order is stable across runs."""
    if fmt == "json":
        payload = {
            "metadata": report.metadata,
            "rows": [row._asdict() for row in report.rows],
            "errors": list(report.errors),
            "warnings": list(report.warnings),
        }
        return json.dumps(payload, sort_keys=True, indent=2)
    return render_table(fmt, _MATRIX_COLUMNS, [row._asdict() for row in report.rows])


#: Each run-file key and the JSON type of its value.
_RUN_TYPES = {
    "corpus": str,
    "candidate": str,
    "configs": list[int],
    "seed": int,
    "payload": str,
    "k": int,
    "strip": bool,
    "chain": list[str],
    "backends": dict,
    "options": dict,
    "imitation_source": str,
}
#: Each ``options`` key: a PipelineConfig field after chain, typed by its default.
_OPTION_TYPES = {
    name: type(PipelineConfig._field_defaults[name])
    for name in PipelineConfig._fields[5:]
}
#: The one ``backends`` key: only the translation stage calls a backend.
_BACKEND_TYPES = {"translation": (str, dict)}


def _finite(token: str) -> float:
    """A run-file number; ``NaN``, ``Infinity`` and overflowing ones are refused."""
    value = float(token)
    if not math.isfinite(value):
        raise DataError(f"run file number {token} is not finite")
    return value


def load_matrix_spec(path) -> dict:
    """Read a declarative JSON run file as :func:`run_matrix`'s keyword arguments.

    The dict holds ``candidate``, ``reference`` and ``configs``, and those of
    ``k``, ``strip`` and ``imitation_source`` that the file gives; what it
    leaves out takes ``run_matrix``'s and :func:`make_configs`' defaults.

    Recognized keys: corpus (directory), candidate (file), configs (list of
    ids), seed, payload, k, strip, chain (pivot languages), backends (only
    translation -> spec), options (the PipelineConfig fields after chain),
    imitation_source (file).  :func:`stylocloak.check_json_object` checks
    every object: any other key, at the top level, in options, backends or
    a backend object, or a value of another JSON type, raises DataError.  So
    do a missing corpus or candidate, a config id listed twice, text that is
    not JSON, a number that is not finite (``NaN``, ``Infinity``,
    ``1e999``), an integer too long to convert and nesting deeper than the
    JSON parser's recursion limit.
    """
    path = Path(path)
    text = read_text_file(path)
    try:
        raw = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except RecursionError:
        raise DataError("run file nests deeper than the JSON parser allows") from None
    except ValueError as exc:  # not JSON, a refused number or too long an integer
        raise DataError(str(exc)) from None
    if not isinstance(raw, dict):
        raise DataError("run file must hold a JSON object")
    check_json_object(raw, _RUN_TYPES, "top-level")
    for key in ("corpus", "candidate"):
        if key not in raw:
            raise DataError(f"run file lacks the top-level key {key!r}")
    check_json_object(raw.get("options", {}), _OPTION_TYPES, "options")
    check_json_object(raw.get("backends", {}), _BACKEND_TYPES, "backends")
    base = path.parent

    def resolve(key) -> Path:
        p = raw[key]
        if not p:  # else it would name the run file's directory
            raise DataError(f"run file key {key!r} is empty")
        if "\0" in p:  # every file system call refuses it with a ValueError
            raise DataError("embedded null byte")
        p = Path(p)
        return p if p.is_absolute() else base / p

    reference = load_corpus(resolve("corpus"))
    candidate_path = resolve("candidate")
    candidate = Document(candidate_path.name, read_text_file(candidate_path))
    given = {key: raw[key] for key in ("seed", "payload", "chain") if key in raw}
    given.update(raw.get("options", {}))
    if "translation" in raw.get("backends", {}):
        given["backend"] = raw["backends"]["translation"]
    config_ids = raw.get("configs", sorted(CONFIG_STAGES))
    seen = set()
    for cid in config_ids:
        if cid in seen:
            raise DataError(f"run file lists config {cid} more than once")
        seen.add(cid)
    spec = {
        "candidate": candidate,
        "reference": reference,
        "configs": make_configs(config_ids, given),
    }
    spec.update((key, raw[key]) for key in ("k", "strip") if key in raw)
    if "imitation_source" in raw:
        spec["imitation_source"] = read_text_file(resolve("imitation_source"))
    return spec
