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
steganography.

Zero-width content is handled once, where text enters: :func:`apply_config`
strips the text it transforms on entry, :func:`run_matrix` strips the
candidate once for all its configs, and the imitation source is stripped
when a style model is first trained.  So no stage sees a stray code point,
and the steganography stage always writes into a clean carrier, through
:func:`~stylocloak.weaver.embed_linewise`, so the weaver alone cuts it into lines.
``run_matrix`` with ``strip=True`` also measures stripped copies of the
candidate, the reference and every transformed text, modelling an analyst
who sanitizes input first.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import DataError, StylocloakError, check_json_object, transforms, weaver
from .styloscope import Corpus, Document, fit_delta_reference, load_corpus, score_delta
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


class UnsupportedFormat(DataError):
    """Requested report format is not one of json/csv/markdown."""


class StageError(StylocloakError, RuntimeError):
    """A stage failed on its input; carries the stage, the cause and its exit code."""

    def __init__(self, stage: str, cause: StylocloakError):
        self.stage = stage
        self.cause = cause
        self.exit_code = cause.exit_code
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass(frozen=True)
class StageOptions:
    """Tunables shared by the transform stages."""

    substitution_rate: float = 0.3
    punctuation_jitter: bool = False
    imitation_ratio: float = 0.25
    model_order: int = 3
    chain: tuple[str, ...] = ()

    def __post_init__(self):
        # The rate is a chance per word, and imitation appends round(ratio *
        # len(text)) characters: bound both.
        for name in ("substitution_rate", "imitation_ratio"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
            if not 0 <= value <= 1:
                raise DataError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class PipelineConfig:
    """One cell of the experiment grid: a config id plus its knobs."""

    id: int
    seed: int = 0
    payload: str = ""
    translation_backend: BackendSpec | None = None
    options: StageOptions = StageOptions()

    def __post_init__(self):
        if self.id not in CONFIG_STAGES:
            raise DataError(f"config id must be 1..15, got {self.id}")

    @property
    def stages(self) -> tuple[str, ...]:
        """The id's stage set, in canonical order."""
        return CONFIG_STAGES[self.id]


def stage_seed(base_seed: int, config_id: int, stage: str) -> int:
    """Stable per-stage seed so grid cells never share RNG streams."""
    digest = hashlib.sha256(f"{base_seed}:{config_id}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def apply_config(
    text: str, config: PipelineConfig, imitation_source: str | None = None
) -> str:
    """Run the configured stages over the text in canonical order.

    The text is stripped of zero-width content on entry.  The imitation
    stage trains on ``imitation_source``, stripped, or on the stripped
    ``text`` (not as translated) when that is None.  An empty stage set
    strips and changes nothing else.  Payload letters beyond the carrier's
    lines are dropped with a :class:`~stylocloak.weaver.SecretOverflow`
    warning.  A stage that fails on its input raises :class:`StageError`;
    any other exception is a bug and propagates as is.
    """
    text, _ = strip_zero_width(text)
    text, dropped = _run_stages(text, config, imitation_source, {})
    if dropped:
        warnings.warn(weaver.SecretOverflow(dropped), stacklevel=2)
    return text


def _run_stages(
    text: str,
    config: PipelineConfig,
    imitation_source: str | None,
    models: dict[tuple[str, int], StyleModel],
) -> tuple[str, int]:
    """:func:`apply_config` on a stripped text, returned with the letters dropped.

    ``models`` caches each (source, order) style model across calls; a
    failed training is not stored.
    """
    opts = config.options
    dropped = 0
    source = text if imitation_source is None else imitation_source
    for stage in config.stages:
        seed = stage_seed(config.seed, config.id, stage)
        try:
            if stage == "translation":
                text = transforms.round_trip_translate(
                    text, opts.chain, config.translation_backend, seed
                )
            elif stage == "imitation":
                key = (source, opts.model_order)
                if key not in models:
                    models[key] = transforms.train_style_model(
                        strip_zero_width(source)[0], opts.model_order
                    )
                generated = transforms.imitate(
                    models[key], round(len(text) * opts.imitation_ratio), seed
                )
                if generated:
                    text = f"{text} {generated}" if text else generated
            elif stage == "obfuscation":
                text = transforms.obfuscate(
                    text, seed, opts.substitution_rate, opts.punctuation_jitter
                )
            elif stage == "steganography":
                text, dropped = weaver.embed_linewise(text, config.payload)
        except StylocloakError as exc:
            raise StageError(stage, exc) from exc
    return text, dropped


@dataclass(frozen=True)
class MatrixRow:
    """One (config, author) cell of the comparison matrix."""

    config: int
    author: str
    delta_adversarial: float
    delta_reference: float
    probability_adversarial: float
    probability_reference: float
    delta_change: float


@dataclass(frozen=True)
class MatrixReport:
    rows: tuple[MatrixRow, ...]
    errors: tuple[dict, ...]
    metadata: dict
    warnings: tuple[dict, ...] = ()


def run_matrix(
    candidate: Document,
    reference: Corpus,
    configs: list[PipelineConfig],
    k: int = 50,
    strip: bool = False,
    imitation_source: str | None = None,
) -> MatrixReport:
    """Transform the candidate under every config and score both versions.

    The reference columns come from the untransformed candidate, so they are
    constant across configs for each author.  With ``strip`` the candidate,
    the reference and each transformed text are measured as stripped copies;
    without it the caller's own documents are scored, token caches and all.
    The reference is fitted once and every style model is trained at most
    once per call.  A config whose stage fails is recorded under ``errors``
    (status "aborted") and the rest of the grid still runs; a failed
    external backend is never silently replaced by the builtin fallback.  A
    payload cut short by a carrier with too few lines is recorded under
    ``warnings``.
    """
    measured = candidate.stripped() if strip else candidate
    fitted = fit_delta_reference(reference.stripped() if strip else reference, k)
    base_report = score_delta(fitted, measured)
    clean_text, _ = strip_zero_width(candidate.text)
    style_models: dict[tuple[str, int], StyleModel] = {}
    rows: list[MatrixRow] = []
    errors: list[dict] = []
    overflows: list[dict] = []
    for config in configs:
        try:
            transformed, dropped = _run_stages(
                clean_text, config, imitation_source, style_models
            )
        except StageError as exc:
            errors.append(
                {
                    "config": config.id,
                    "stage": exc.stage,
                    "status": "aborted",
                    "error": str(exc.cause),
                }
            )
            continue
        if dropped:
            overflows.append(
                {"config": config.id, "stage": "steganography", "dropped": dropped}
            )
        adv_doc = Document(id=f"{candidate.id}#config{config.id}", text=transformed)
        adv_report = score_delta(fitted, adv_doc.stripped() if strip else adv_doc)
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
    return MatrixReport(
        rows=tuple(rows),
        errors=tuple(errors),
        metadata=metadata,
        warnings=tuple(overflows),
    )


def render_table(
    fmt: str, columns: list[tuple[str, str, str]], records: list[dict]
) -> str:
    """Render records as CSV or as a Markdown table.

    ``columns`` holds one (record key, Markdown heading, format spec) triple
    per column; the key doubles as the CSV header.
    """
    cells = [[format(r[key], spec) for key, _, spec in columns] for r in records]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(key for key, _, _ in columns)
        writer.writerows(cells)
        return buffer.getvalue()
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(heading for _, heading, _ in columns) + " |",
            "|" + "---|" * len(columns),
        ]
        lines += ["| " + " | ".join(row) + " |" for row in cells]
        return "\n".join(lines) + "\n"
    raise UnsupportedFormat(f"unknown report format {fmt!r}")


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
            "rows": [asdict(row) for row in report.rows],
            "errors": list(report.errors),
            "warnings": list(report.warnings),
        }
        return json.dumps(payload, sort_keys=True, indent=2)
    return render_table(fmt, _MATRIX_COLUMNS, [asdict(row) for row in report.rows])


@dataclass(frozen=True)
class MatrixSpec:
    """Parsed matrix run description: corpora, grid, and options."""

    candidate: Document
    reference: Corpus
    configs: tuple[PipelineConfig, ...]
    k: int = 50
    strip: bool = False
    imitation_source: str | None = None


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
#: Each ``options`` key: every StageOptions field except chain, typed by its default.
_OPTION_TYPES = {
    f.name: type(f.default) for f in fields(StageOptions) if f.name != "chain"
}
#: The one ``backends`` key: only the translation stage calls a backend.
_BACKEND_TYPES = {"translation": (str, dict)}


def _finite(token: str) -> float:
    """A run-file number; ``NaN``, ``Infinity`` and overflowing ones are refused."""
    value = float(token)
    if not math.isfinite(value):
        raise DataError(f"run file number {token} is not finite")
    return value


def load_matrix_spec(path) -> MatrixSpec:
    """Read a declarative JSON run file.

    Recognized keys: corpus (directory), candidate (file), configs (list of
    ids), seed, payload, k, strip, chain (pivot languages), backends (only
    translation -> spec), options (StageOptions fields except chain),
    imitation_source (file).  :func:`stylocloak.check_json_object` checks
    every object: any other key, at the top level, in options, backends or
    a backend object, or a value of another JSON type, raises DataError.  So
    do a missing corpus or candidate, text that is not JSON, a number that
    is not finite (``NaN``, ``Infinity``, ``1e999``), an integer too long to
    convert and nesting deeper than the JSON parser's recursion limit.
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

    def resolve(p) -> Path:
        if "\0" in p:  # every file system call refuses it with a ValueError
            raise DataError("embedded null byte")
        p = Path(p)
        return p if p.is_absolute() else base / p

    reference = load_corpus(resolve(raw["corpus"]))
    candidate_path = resolve(raw["candidate"])
    candidate = Document(
        id=candidate_path.name,
        text=read_text_file(candidate_path),
    )
    backends = raw.get("backends", {})
    backend = BackendSpec.parse(backends["translation"]) if backends else None
    options = StageOptions(
        **{**raw.get("options", {}), "chain": tuple(raw.get("chain", ()))}
    )
    seed = raw.get("seed", 0)
    payload = raw.get("payload", "")
    configs = tuple(
        PipelineConfig(
            id=cid,
            seed=seed,
            payload=payload,
            translation_backend=backend,
            options=options,
        )
        for cid in raw.get("configs", sorted(CONFIG_STAGES))
    )
    imitation_source = None
    if raw.get("imitation_source"):
        imitation_source = read_text_file(resolve(raw["imitation_source"]))
    return MatrixSpec(
        candidate=candidate,
        reference=reference,
        configs=configs,
        k=raw.get("k", 50),
        strip=raw.get("strip", False),
        imitation_source=imitation_source,
    )
