"""Command-line surface for the whole toolkit.

Exit codes: 0 success, 1 usage error, 2 data error (malformed stream, bad
corpus, bad config, unreadable or undecodable input), 3 external backend
failure, 141 stdout closed by its reader (``| head``), with no message; any
other error is a bug and ends in a traceback.  ``decode``
reads one stream, up to the first end marker, and warns about the rest;
``extract-lines`` decodes every stream of each line, in order.  Machine-readable
output goes to stdout, diagnostics to stderr.  Raw encoded streams are
written as real zero-width code points; pass --escaped to render them as
U+XXXX for terminals that mangle invisibles.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

# pipeline, styloscope and transforms are imported by the handlers that run
# them, so that a command loads only the modules it uses.
from . import DataError, StylocloakError, weaver, zwcodec


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_ESCAPES = str.maketrans({point: f"U+{ord(point):04X}" for point in zwcodec.POINTS})


def _escape(stream: str) -> str:
    return stream.translate(_ESCAPES)


def _read_input(path: str) -> str:
    """Read a file, or stdin for ``-``, as UTF-8 without newline translation."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    return zwcodec.read_text_file(path)


def _write_output(args, text: str) -> None:
    """Write ``text`` to ``--output``, or to stdout: every command's one writer.

    Stdout gets pieces of at most 1024 characters, at most 4096 bytes of
    UTF-8 (PIPE_BUF), which a pipe takes whole or refuses: an unbuffered
    stdout (``PYTHONUNBUFFERED``) ignores a short write, so a longer piece
    could be cut silently where it should raise :class:`BrokenPipeError`.
    """
    output = getattr(args, "output", None)
    if output not in (None, "-"):
        zwcodec.write_text_file(output, text)
    else:
        for start in range(0, len(text), 1024):
            sys.stdout.write(text[start : start + 1024])


def _warn(message) -> None:
    """The one way a command reports something it did not stop for.

    The library returns what it dropped as a value, and the command prints
    it here as one ``warning:`` line on stderr.
    """
    print(f"warning: {message}", file=sys.stderr)


def _message_from(args) -> str:
    if getattr(args, "payload_file", None) is not None:
        return zwcodec.read_text_file(args.payload_file).strip()
    if getattr(args, "message", None) is not None:
        return args.message
    raise DataError("provide --message or --payload-file")


def _encoded_message(args) -> str:
    """The message as a stream; ``--lenient`` first drops what has no code."""
    message = _message_from(args)
    if args.lenient:
        kept = "".join(c for c in message if c in zwcodec.CASED_CODEBOOK)
        if len(kept) < len(message):
            _warn(f"dropped {len(message) - len(kept)} unsupported character(s)")
        message = kept
    return zwcodec.encode_message(message)


def _parse_ngrams(value: str) -> tuple[int, int]:
    low, _, high = value.partition("..")
    try:
        return int(low), int(high or low)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN..MAX, got {value!r}") from None


def cmd_encode(args) -> int:
    stream = _encoded_message(args)
    _write_output(args, (_escape(stream) if args.escaped else stream) + "\n")
    return 0


def cmd_decode(args) -> int:
    _, extracted = zwcodec.strip_zero_width(_read_input(args.input))
    _write_output(args, zwcodec.decode_stream(extracted) + "\n")
    # decode_stream stops at the first end marker; say what it left unread.
    rest = extracted.partition(zwcodec.END)[2]
    if rest:
        skipped = rest.count(zwcodec.END) + (not rest.endswith(zwcodec.END))
        _warn(
            f"{skipped} stream(s) after the first were not decoded; "
            "extract-lines decodes every stream"
        )
    return 0


def cmd_strip(args) -> int:
    clean, extracted = zwcodec.strip_zero_width(_read_input(args.input))
    if args.payload_out is not None:
        # raw stream dump: the carrier-file BOM refusal does not apply here,
        # a stream may legitimately start with the end marker
        with open(args.payload_out, "w", encoding="utf-8", newline="") as handle:
            handle.write(extracted)
    _write_output(args, clean)
    return 0


def cmd_scan(args) -> int:
    report = zwcodec.scan_text(_read_input(args.input))
    _write_output(args, report.to_json() + "\n")
    return 0


def cmd_weave(args) -> int:
    woven = weaver.weave_into_unigram(args.word, _encoded_message(args), args.strategy)
    _write_output(args, (_escape(woven) if args.escaped else woven) + "\n")
    return 0


def cmd_embed_lines(args) -> int:
    text = _read_input(args.input)
    result, dropped = weaver.embed_linewise(text, _message_from(args), args.strategy)
    if dropped:
        _warn(weaver.SecretOverflow(dropped))
    _write_output(args, result)
    return 0


def cmd_extract_lines(args) -> int:
    _write_output(args, weaver.extract_from_text(_read_input(args.input)) + "\n")
    return 0


def cmd_transform(args) -> int:
    from . import pipeline

    # --stage S runs the grid's single-stage config for S.
    stage_config_ids = {
        stages[0]: cid
        for cid, stages in pipeline.CONFIG_STAGES.items()
        if len(stages) == 1
    }
    if args.config_id is not None:
        config_id = args.config_id
    elif args.stage is not None:
        config_id = stage_config_ids[args.stage]
    else:
        raise DataError("provide --stage or --config-id")
    text = _read_input(args.input)
    given = {name: getattr(args, name) for _, name, _ in _GRID_FLAGS if name in args}
    (config,) = pipeline.make_configs([config_id], given)
    if "backend" in given and "translation" not in config.stages:
        raise DataError(
            f"--backend applies only to the translation stage, "
            f"which config {config_id} does not run"
        )
    source = None
    if args.style_source is not None:
        source = zwcodec.read_text_file(args.style_source)
    result, dropped = pipeline.apply_config(text, config, imitation_source=source)
    if dropped:
        _warn(weaver.SecretOverflow(dropped))
    _write_output(args, result)
    return 0


def cmd_features(args) -> int:
    from . import styloscope

    corpus = styloscope.load_corpus(args.corpus)
    if args.candidate is not None:
        text = _read_input(args.candidate)
        corpus.documents.append(styloscope.Document(id=args.candidate, text=text))
    if args.strip:
        corpus = corpus.stripped()
    # The bytes of json.dumps(payload, sort_keys=True), written one document
    # at a time so that neither every vector nor the whole text is held at
    # once.  The sort is stable: a repeated id keeps its last document.
    corpus.documents.sort(key=lambda doc: doc.id)
    vectors = styloscope.iter_feature_vectors(corpus, *args.ngrams)
    members = itertools.starmap(styloscope._feature_json, vectors)
    _write_output(args, "{")
    for i, member in enumerate(members):
        _write_output(args, ", " + member if i else member)
    _write_output(args, "}\n")
    return 0


def cmd_delta(args) -> int:
    from . import styloscope

    if args.candidate == args.reference == "-":
        raise DataError(
            "--candidate and --reference cannot both be '-': stdin is read once"
        )
    corpus = styloscope.load_corpus(args.corpus)
    paths = {"candidate": args.candidate}
    if args.reference is not None:
        paths["reference"] = args.reference
    documents = {
        name: styloscope.Document(id=path, text=_read_input(path))
        for name, path in paths.items()
    }
    if args.strip:
        corpus = corpus.stripped()
        documents = {name: doc.stripped() for name, doc in documents.items()}
    given = {"k": args.k} if "k" in args else {}
    fitted = styloscope.fit_delta_reference(corpus, **given)
    reports = {
        name: styloscope.score_delta(fitted, doc) for name, doc in documents.items()
    }
    if args.format == "json":
        # One report prints as its fields, two keyed by name.
        payload = {name: report._asdict() for name, report in reports.items()}
        if len(payload) == 1:
            payload = payload["candidate"]
        _write_output(args, json.dumps(payload, sort_keys=True) + "\n")
        return 0
    columns = [("author", "Author", "")]
    records = [{"author": author} for author in sorted(reports["candidate"].deltas)]
    for name, report in reports.items():
        columns += [
            (f"delta_{name}", f"Burrows' Delta ({name})", ".4f"),
            (f"probability_{name}", f"Probability ({name})", ".6f"),
        ]
        for record in records:
            record[f"delta_{name}"] = report.deltas[record["author"]]
            record[f"probability_{name}"] = report.probabilities[record["author"]]
    _write_output(args, styloscope.render_table(args.format, columns, records))
    return 0


def cmd_matrix(args) -> int:
    from . import pipeline

    spec = pipeline.load_matrix_spec(args.config)
    if args.strip:
        spec["strip"] = True
    report = pipeline.run_matrix(**spec)
    for error in report.errors:
        failed = f"stage {error['stage']!r} failed: {error['error']}"
        _warn(f"config {error['config']}: {failed}")
    for note in report.warnings:
        _warn(f"config {note['config']}: {weaver.SecretOverflow(note['dropped'])}")
    rendered = pipeline.emit_report(report, args.format)
    _write_output(args, rendered if rendered.endswith("\n") else rendered + "\n")
    if args.output not in (None, "-"):
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


#: ``transform``'s grid inputs as (flag, its input name for
#: ``pipeline.make_configs``, argparse keywords).  An option's name is its
#: PipelineConfig field and run-file ``options`` key.  A flag passes on only
#: what the user gave, so an input left out takes the library's default.
_GRID_FLAGS = (
    ("--seed", "seed", {"type": int}),
    ("--rate", "substitution_rate", {
        "type": float,
        "help": "chance that a word with a synonym is replaced, in [0, 1]",
    }),
    ("--jitter", "punctuation_jitter", {
        "action": "store_true", "help": "punctuation spacing jitter",
    }),
    ("--imitation-ratio", "imitation_ratio", {
        "type": float,
        "help": "generated characters per input character, in [0, 1]",
    }),
    ("--order", "model_order", {"type": int, "help": "style model context length"}),
    ("--chain", "chain", {
        "type": lambda value: value.split(","),
        "help": "comma-separated pivot languages",
    }),
    ("--backend", "backend", {
        "help": "translation backend: builtin | cmd:<command> | http(s)://<url>",
    }),
    ("--payload", "payload", {"help": "secret letters for the steganography stage"}),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="stylocloak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("encode", cmd_encode, "encode a message as a zero-width stream")
    p.add_argument("--message")
    p.add_argument("--payload-file")
    p.add_argument("--escaped", action="store_true")
    p.add_argument("--lenient", action="store_true", help="drop unsupported characters")

    p = add("decode", cmd_decode, "decode the zero-width stream found in a text")
    p.add_argument("input", nargs="?", default="-")

    p = add("strip", cmd_strip, "remove zero-width payload from a carrier")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--output", "-o")
    p.add_argument("--payload-out", help="also save the extracted stream here")

    p = add("scan", cmd_scan, "report zero-width code point occurrences as JSON")
    p.add_argument("input", nargs="?", default="-")

    p = add("weave", cmd_weave, "interleave an encoded message inside one word")
    p.add_argument("--word", required=True)
    p.add_argument("--message")
    p.add_argument("--payload-file")
    p.add_argument("--strategy", choices=weaver.STRATEGIES, default="round_robin")
    p.add_argument("--escaped", action="store_true")
    p.add_argument("--lenient", action="store_true")

    p = add("embed-lines", cmd_embed_lines, "hide one secret letter per line")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--message")
    p.add_argument("--payload-file")
    p.add_argument("--output", "-o")
    p.add_argument("--strategy", choices=weaver.STRATEGIES, default="round_robin")

    p = add("extract-lines", cmd_extract_lines, "recover a line-wise hidden secret")
    p.add_argument("input", nargs="?", default="-")

    p = add("transform", cmd_transform, "apply one stage or a whole numbered config")
    p.add_argument("input", nargs="?", default="-")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--stage", choices=("translation", "imitation", "obfuscation"))
    which.add_argument("--config-id", type=int, help="run pipeline config 1..15 instead")
    p.add_argument("--style-source", help="training text for the imitation stage")
    for flag, name, keywords in _GRID_FLAGS:
        p.add_argument(flag, dest=name, default=argparse.SUPPRESS, **keywords)
    p.add_argument("--output", "-o")

    p = add("features", cmd_features, "extract lexical feature vectors as JSON")
    p.add_argument("--corpus", required=True)
    p.add_argument("--candidate", help="score an extra unlabeled document too")
    p.add_argument("--ngrams", type=_parse_ngrams, default="2..4", metavar="MIN..MAX")
    p.add_argument("--strip", action="store_true")

    p = add("delta", cmd_delta, "Burrows' Delta of a candidate against a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--reference", help="also score this untransformed text")
    p.add_argument("--k", type=int, default=argparse.SUPPRESS)
    p.add_argument("--strip", action="store_true")
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")

    p = add("matrix", cmd_matrix, "run a config grid from a JSON run file")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    p.add_argument("--output", "-o")
    p.add_argument("--strip", action="store_true")

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise  # stdout's reader stopped: main's to handle
    except (StylocloakError, OSError, UnicodeError) as exc:
        # Faults in the input, and files or text that cannot be read,
        # decoded or encoded; anything else is a bug and propagates.
        code = getattr(exc, "exit_code", 2)
        print(f"{'backend error' if code == 3 else 'error'}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    # A character decoded from a non-UTF-8 file name or argument (a lone
    # surrogate U+DC80..U+DCFF) is written back as the byte it came from, as
    # ls does; JSON output escapes it instead, as \udcXX.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8", errors="surrogateescape")
    try:
        code = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader stopped (``| head``): exit as SIGPIPE would, with
        # stdout on devnull so that the interpreter's flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
