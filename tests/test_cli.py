import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from stylocloak import (
    StylocloakError,
    cli,
    pipeline,
    styloscope,
    transforms,
    weaver,
    zwcodec,
)
from stylocloak.cli import build_parser, dispatch
from stylocloak.pipeline import CONFIG_STAGES, PipelineConfig
from stylocloak.synthcorpus import STYLE_A, candidate_for, two_author_corpus
from stylocloak.zwcodec import BIT0, END

pytestmark = pytest.mark.filterwarnings("ignore::stylocloak.weaver.SecretOverflow")


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- operation coverage: every module operation has exactly one subcommand ----

OPERATION_SURFACE = {
    "zwcodec.encode_message": "encode",
    "zwcodec.decode_stream": "decode",
    "zwcodec.strip_zero_width": "strip",
    "zwcodec.scan_text": "scan",
    "weaver.weave_into_unigram": "weave",
    "weaver.embed_into_text": "embed-lines",  # runs weaver.embed_linewise
    "weaver.extract_from_text": "extract-lines",
    "transforms.round_trip_translate": "transform",
    "transforms.train_style_model": "transform",
    "transforms.imitate": "transform",
    "transforms.obfuscate": "transform",
    "styloscope.tokenize": "features",
    "styloscope.iter_feature_vectors": "features",
    "styloscope.function_word_frequencies": "features",
    "styloscope.token_length_stats": "features",
    "styloscope.vocabulary_richness": "features",
    "styloscope.fit_delta_reference": "delta",
    "styloscope.score_delta": "delta",
    "styloscope.author_probabilities": "delta",
    "pipeline.apply_config": "transform",
    "pipeline.run_matrix": "matrix",
    "pipeline.emit_report": "matrix",
}


def test_every_operation_reachable_via_exactly_one_subcommand():
    import argparse
    import importlib
    import inspect

    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    registered = set(subparsers.choices)
    expected = {
        "encode", "decode", "strip", "scan", "weave", "embed-lines",
        "extract-lines", "transform", "features", "delta", "matrix",
    }
    assert registered == expected
    for operation, subcommand in OPERATION_SURFACE.items():
        assert subcommand in registered, operation
        # a deleted or renamed function fails here, not just a lost command
        module_name, _, name = operation.partition(".")
        module = importlib.import_module(f"stylocloak.{module_name}")
        function = getattr(module, name, None)
        assert not name.startswith("_"), operation
        assert inspect.isfunction(function), operation
        assert function.__module__ == module.__name__, operation


# --- codec surface -----------------------------------------------------------

def test_encode_decode_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "encode", "--message", "AB")
    assert code == 0
    stream_file = tmp_path / "stream.txt"
    stream_file.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "decode", str(stream_file))
    assert code == 0
    assert out.strip() == "AB"


def test_encode_escaped_output(capsys):
    code, out, _ = run(capsys, "encode", "--message", "A", "--escaped")
    assert code == 0
    assert out.strip() == "U+200BU+FEFF"


def test_decode_warns_about_the_streams_after_the_first(capsys, tmp_path):
    target = tmp_path / "stego.txt"
    target.write_text(
        weaver.embed_into_text("one line\ntwo line\nred line\n", "MEE"),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "decode", str(target))
    assert (code, out) == (0, "M\n")
    assert err == (
        "warning: 2 stream(s) after the first were not decoded; "
        "extract-lines decodes one stream per line\n"
    )
    assert run(capsys, "extract-lines", str(target)) == (0, "MEE\n", "")


def test_decode_counts_an_unterminated_tail_as_a_stream(capsys, tmp_path):
    target = tmp_path / "stego.txt"
    target.write_text("a" + zwcodec.encode_message("AB") + "b" + BIT0, encoding="utf-8")
    code, out, err = run(capsys, "decode", str(target))
    assert (code, out) == (0, "AB\n")
    assert err.startswith("warning: 1 stream(s) after the first")


def test_decode_of_one_stream_warns_nothing(capsys, tmp_path):
    target = tmp_path / "stego.txt"
    target.write_text("a" + zwcodec.encode_message("AB") + "b", encoding="utf-8")
    assert run(capsys, "decode", str(target)) == (0, "AB\n", "")


def test_decode_clean_text_is_data_error(capsys, tmp_path):
    target = tmp_path / "clean.txt"
    target.write_text("nothing hidden here", encoding="utf-8")
    code, _, err = run(capsys, "decode", str(target))
    assert code == 2
    assert "end marker" in err


def test_strip_and_scan(capsys, tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("pa" + BIT0 + END + "per", encoding="utf-8")
    code, out, _ = run(capsys, "strip", str(doc))
    assert code == 0
    assert out == "paper"
    payload_file = tmp_path / "payload.bin"
    code, out, _ = run(capsys, "strip", str(doc), "--payload-out", str(payload_file))
    assert code == 0
    assert payload_file.read_text(encoding="utf-8") == BIT0 + END
    code, out, _ = run(capsys, "scan", str(doc))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["counts"]["U+200B"] == 1


def test_scan_produces_single_json_value(capsys, tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("plain", encoding="utf-8")
    code, out, _ = run(capsys, "scan", str(doc))
    assert code == 0
    json.loads(out)  # exactly one parseable value
    assert json.loads(out)["verdict"] is False


#: Locales that decode a bare ``sys.stdin`` otherwise than as UTF-8.
FOREIGN_LOCALES = {
    "latin-1": {"PYTHONIOENCODING": "latin-1"},
    "c-locale": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
}


@pytest.mark.parametrize("locale_env", FOREIGN_LOCALES.values(), ids=FOREIGN_LOCALES)
def test_stdin_is_read_like_a_file(tmp_path, locale_env):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(("PYTHON", "LC_", "LANG"))
    }
    env.update(locale_env, PYTHONPATH=str(src))
    for command, data in (("scan", "a\u200bb\n"), ("strip", "a\u200bb\r\nc\r\n")):
        path = tmp_path / f"{command}.txt"
        path.write_bytes(data.encode("utf-8"))
        printed = [
            subprocess.run(
                [sys.executable, "-m", "stylocloak.cli", command, source],
                input=path.read_bytes(), env=env, capture_output=True,
            )
            for source in (str(path), "-")
        ]
        assert [p.returncode for p in printed] == [0, 0], printed[1].stderr
        assert printed[1].stdout == printed[0].stdout, command
    assert printed[0].stdout == b"ab\r\nc\r\n"


def test_weave_subcommand(capsys):
    code, out, _ = run(capsys, "weave", "--word", "ab", "--message", "A", "--escaped")
    assert code == 0
    assert out.strip() == "aU+200BbU+FEFF"


def test_embed_and_extract_lines(capsys, tmp_path):
    source = tmp_path / "carrier.txt"
    source.write_text("line one\nline two\nline three\n", encoding="utf-8")
    stego = tmp_path / "stego.txt"
    code, _, err = run(
        capsys, "embed-lines", str(source), "--message", "KEY", "--output", str(stego)
    )
    assert code == 0
    code, out, _ = run(capsys, "extract-lines", str(stego))
    assert code == 0
    assert out.strip() == "KEY"


def test_embed_lines_overflow_warns_on_stderr(capsys, tmp_path):
    source = tmp_path / "carrier.txt"
    source.write_text("only line\n", encoding="utf-8")
    stego = tmp_path / "stego.txt"
    code, _, err = run(
        capsys, "embed-lines", str(source), "--message", "ABC", "--output", str(stego)
    )
    assert code == 0
    assert "2 secret letter" in err


# --- transforms surface ---------------------------------------------------------

SAMPLE_TEXT = (
    "The big house stood near the quiet river. You walked there slowly.\n"
    "A small road led away from the old bridge. It was completely silent.\n"
)


def test_transform_obfuscation_deterministic(capsys, tmp_path):
    doc = tmp_path / "t.txt"
    doc.write_text("First one. Second two. Third three.", encoding="utf-8")
    code, out1, _ = run(capsys, "transform", str(doc), "--stage", "obfuscation",
                        "--seed", "9", "--rate", "0")
    code2, out2, _ = run(capsys, "transform", str(doc), "--stage", "obfuscation",
                         "--seed", "9", "--rate", "0")
    assert code == code2 == 0
    assert out1 == out2


def test_transform_translation_builtin(capsys, tmp_path):
    doc = tmp_path / "t.txt"
    doc.write_text("the big house", encoding="utf-8")
    code, out, _ = run(capsys, "transform", str(doc), "--stage", "translation",
                       "--seed", "3")
    assert code == 0
    assert out.startswith("the ")
    assert "big" not in out


def test_transform_imitation_appends(capsys, tmp_path):
    doc = tmp_path / "t.txt"
    doc.write_text("some words repeat some words repeat some words", encoding="utf-8")
    code, out, _ = run(capsys, "transform", str(doc), "--stage", "imitation",
                       "--seed", "4", "--order", "2")
    assert code == 0
    assert out.startswith("some words repeat")


def test_transform_config_id_runs_pipeline(capsys, tmp_path):
    doc = tmp_path / "t.txt"
    doc.write_text("alpha beta.\ngamma delta.\n", encoding="utf-8")
    code, out, _ = run(capsys, "transform", str(doc), "--config-id", "8",
                       "--payload", "AB", "--seed", "1")
    assert code == 0
    clean, extracted = zwcodec.strip_zero_width(out)
    assert clean == "alpha beta.\ngamma delta.\n"
    assert extracted


def test_transform_config_id_equals_the_grid(capsys, tmp_path, monkeypatch):
    corpus_dir, candidate = write_corpus(tmp_path)
    text = candidate.read_text(encoding="utf-8")
    assert text.count("\n") >= 2
    scored = {}
    real_score = pipeline.score_delta

    def recording(fitted, document):
        scored[document.id] = document.text
        return real_score(fitted, document)

    monkeypatch.setattr(pipeline, "score_delta", recording)
    configs = [PipelineConfig(id=i, seed=3, payload="KEY") for i in sorted(CONFIG_STAGES)]
    document = styloscope.Document(id="cand", text=text)
    report = pipeline.run_matrix(
        document, styloscope.load_corpus(corpus_dir), configs, k=30
    )
    assert not report.errors
    for config in configs:
        code, out, _ = run(capsys, "transform", str(candidate), "--config-id",
                           str(config.id), "--payload", "KEY", "--seed", "3")
        assert code == 0
        assert out == scored[f"cand#config{config.id}"], config.id


@pytest.mark.parametrize("stage", ["translation", "imitation", "obfuscation"])
def test_transform_stage_is_its_single_stage_config(capsys, tmp_path, stage):
    doc = tmp_path / "t.txt"
    doc.write_text(SAMPLE_TEXT, encoding="utf-8")
    config_id = next(i for i, s in CONFIG_STAGES.items() if s == (stage,))
    code, by_stage, _ = run(capsys, "transform", str(doc), "--stage", stage,
                            "--seed", "5")
    code2, by_id, _ = run(capsys, "transform", str(doc), "--config-id",
                          str(config_id), "--seed", "5")
    assert code == code2 == 0
    assert by_stage == by_id


def test_transform_requires_stage_or_config(capsys, tmp_path):
    doc = tmp_path / "t.txt"
    doc.write_text("text", encoding="utf-8")
    code, _, err = run(capsys, "transform", str(doc))
    assert code == 2
    assert "stage" in err


def test_backend_failure_exit_code(capsys, tmp_path):
    doc = tmp_path / "t.txt"
    doc.write_text("text", encoding="utf-8")
    code, _, err = run(capsys, "transform", str(doc), "--stage", "translation",
                       "--backend", "cmd:false", "--chain", "de")
    assert code == 3
    assert "backend" in err.lower()


def test_backend_failure_via_config_id_exit_code(capsys, tmp_path):
    doc = tmp_path / "t.txt"
    doc.write_text("text", encoding="utf-8")
    code, _, err = run(capsys, "transform", str(doc), "--config-id", "2",
                       "--backend", "cmd:false", "--chain", "de")
    assert code == 3


def test_stage_error_from_a_data_fault_exits_2(capsys, tmp_path):
    doc = tmp_path / "t.txt"
    doc.write_text("some text to imitate", encoding="utf-8")
    source = tmp_path / "source.txt"
    source.write_text("ab", encoding="utf-8")  # not longer than the order
    code, _, err = run(capsys, "transform", str(doc), "--stage", "imitation",
                       "--style-source", str(source), "--order", "3")
    assert code == 2
    assert err.startswith("error: stage 'imitation' failed")


def test_other_runtime_error_propagates(capsys, tmp_path, monkeypatch):
    def broken(args):
        raise RuntimeError("a bug, not a backend or stage failure")

    monkeypatch.setattr(cli, "cmd_scan", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        dispatch(["scan", str(tmp_path / "unread.txt")])
    assert capsys.readouterr().err == ""


# --- stylometry surface ---------------------------------------------------------

def write_corpus(tmp_path):
    corpus_dir = tmp_path / "corpus"
    for doc in two_author_corpus(seed=5, n_docs=3, chars_per_doc=1200).documents:
        path = corpus_dir / doc.id
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(doc.text, encoding="utf-8")
    candidate = tmp_path / "candidate.txt"
    candidate.write_text(candidate_for(STYLE_A, seed=5, n_chars=900).text, "utf-8")
    return corpus_dir, candidate


def write_dirty_twin(root):
    """The ``write_corpus`` workspace, with zero-width content where text enters.

    The candidate carries a line-wise payload, the untransformed reference a
    stray U+200B and one corpus document an encoded stream.
    """
    corpus_dir, candidate = write_corpus(root)
    text = candidate.read_text(encoding="utf-8")
    candidate.write_text(weaver.embed_into_text(text, "KEY"), encoding="utf-8")
    (root / "original.txt").write_text(text[:7] + "\u200b" + text[7:], encoding="utf-8")
    document = sorted((corpus_dir / "ashford").glob("*.txt"))[0]
    body = document.read_text(encoding="utf-8")
    document.write_text(
        body[:10] + zwcodec.encode_message("HI") + body[10:], encoding="utf-8"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("features", "--corpus", "corpus", "--candidate", "candidate.txt",
         "--ngrams", "2..3"),
        ("delta", "--corpus", "corpus", "--candidate", "candidate.txt",
         "--reference", "original.txt", "--k", "30"),
        ("delta", "--corpus", "corpus", "--candidate", "candidate.txt",
         "--reference", "original.txt", "--k", "30", "--format", "csv"),
    ],
    ids=["features", "delta-json", "delta-csv"],
)
def test_strip_measures_dirty_inputs_as_their_clean_twins(
    capsys, tmp_path, monkeypatch, argv
):
    clean, dirty = tmp_path / "clean", tmp_path / "dirty"
    _, candidate = write_corpus(clean)
    (clean / "original.txt").write_bytes(candidate.read_bytes())
    write_dirty_twin(dirty)
    printed = {}
    for root in (clean, dirty):
        monkeypatch.chdir(root)
        for flags in ((), ("--strip",)):
            printed[root.name, flags] = run(capsys, *argv, *flags)
    expected = printed["clean", ()]
    assert expected[0] == 0
    assert printed["dirty", ("--strip",)] == expected
    assert printed["clean", ("--strip",)] == expected
    assert printed["dirty", ()][1] != expected[1]


def test_features_json_output(capsys, tmp_path):
    corpus_dir, candidate = write_corpus(tmp_path)
    code, out, _ = run(capsys, "features", "--corpus", str(corpus_dir),
                       "--candidate", str(candidate), "--ngrams", "2..3")
    assert code == 0
    payload = json.loads(out)
    assert str(candidate) in payload
    vector = payload[str(candidate)]
    assert set(vector) == {
        "char_ngram_tfidf", "special_char_tfidf", "function_word_freq",
        "avg_chars_per_token", "token_length_histogram", "vocab_richness",
    }


#: sha256 of ``features --corpus corpus --candidate candidate.txt`` stdout on
#: the ``make_demo.py --seed 1`` workspace, by ``--ngrams`` value.  Any change
#: to a feature value or to the JSON layout changes these.
GOLDEN_FEATURES_SHA256 = {
    "2..4": "ef2afcfde3282c78552f1780ccd6746d42192db94e181554ad4521cbe7ba6435",
    "1..3": "bd4a05e2fb62f6d96fbb3cd0540c6e0a3a11d4bb45169558f18a65e4dd1f95f7",
}


@pytest.fixture(scope="module")
def demo_workspace(tmp_path_factory):
    dest = tmp_path_factory.mktemp("demo")
    root = Path(__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, str(root / "scripts" / "make_demo.py"), str(dest), "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        check=True,
        capture_output=True,
    )
    return dest


@pytest.mark.parametrize("ngrams", sorted(GOLDEN_FEATURES_SHA256))
def test_features_output_matches_golden_hash(capsys, monkeypatch, demo_workspace, ngrams):
    monkeypatch.chdir(demo_workspace)
    code, out, err = run(capsys, "features", "--corpus", "corpus",
                         "--candidate", "candidate.txt", "--ngrams", ngrams)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_FEATURES_SHA256[ngrams]


def test_features_writes_the_json_of_every_vector_a_repeated_id_last(
    capsys, monkeypatch, tmp_path
):
    corpus_dir, _ = write_corpus(tmp_path)
    monkeypatch.chdir(corpus_dir)
    # The candidate's id is its path, the same id as the corpus document.
    code, out, _ = run(capsys, "features", "--corpus", ".",
                       "--candidate", "ashford/ashford_00.txt", "--ngrams", "1..2")
    assert code == 0
    reference = styloscope.load_corpus(".")
    twin = reference.documents[0]
    reference.documents.append(styloscope.Document(twin.id, twin.text))
    payload = dict(styloscope.iter_feature_vectors(reference, 1, 2))
    assert len(payload) == len(reference.documents) - 1
    assert out == json.dumps(payload, sort_keys=True) + "\n"


def test_delta_json_output(capsys, tmp_path):
    corpus_dir, candidate = write_corpus(tmp_path)
    code, out, _ = run(capsys, "delta", "--corpus", str(corpus_dir),
                       "--candidate", str(candidate), "--k", "30")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"deltas", "probabilities", "function_words_used"}
    assert payload["deltas"]["ashford"] < payload["deltas"]["bellamy"]


def test_delta_with_reference_column(capsys, tmp_path):
    corpus_dir, candidate = write_corpus(tmp_path)
    reference_text = tmp_path / "original.txt"
    reference_text.write_text(
        candidate_for(STYLE_A, seed=6, n_chars=800).text, encoding="utf-8"
    )
    code, out, _ = run(capsys, "delta", "--corpus", str(corpus_dir),
                       "--candidate", str(candidate),
                       "--reference", str(reference_text))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"candidate", "reference"}
    assert set(payload["candidate"]) == {
        "deltas", "probabilities", "function_words_used",
    }


def test_delta_with_reference_fits_the_corpus_once(capsys, tmp_path, monkeypatch):
    corpus_dir, candidate = write_corpus(tmp_path)
    reference_text = tmp_path / "original.txt"
    reference_text.write_text(
        candidate_for(STYLE_A, seed=6, n_chars=800).text, encoding="utf-8"
    )
    fits = []
    real_fit = styloscope.fit_delta_reference

    def counted(*args, **kwargs):
        fits.append(args)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(styloscope, "fit_delta_reference", counted)
    code, out, _ = run(capsys, "delta", "--corpus", str(corpus_dir),
                       "--candidate", str(candidate),
                       "--reference", str(reference_text), "--k", "30")
    assert code == 0
    assert len(fits) == 1
    corpus = styloscope.load_corpus(corpus_dir)
    expected = {
        name: json.loads(
            styloscope.score_delta(
                real_fit(corpus, 30),
                styloscope.Document(id=str(path), text=zwcodec.read_text_file(path)),
            ).to_json()
        )
        for name, path in (("candidate", candidate), ("reference", reference_text))
    }
    assert out == json.dumps(expected, sort_keys=True) + "\n"


def test_delta_markdown_output(capsys, tmp_path):
    corpus_dir, candidate = write_corpus(tmp_path)
    code, out, _ = run(capsys, "delta", "--corpus", str(corpus_dir),
                       "--candidate", str(candidate), "--format", "markdown")
    assert code == 0
    assert "Burrows' Delta" in out


def test_delta_csv_quotes_author_names(capsys, tmp_path):
    corpus_dir, candidate = write_corpus(tmp_path)
    (corpus_dir / "ashford").rename(corpus_dir / "smith, j")
    code, out, _ = run(capsys, "delta", "--corpus", str(corpus_dir),
                       "--candidate", str(candidate), "--reference", str(candidate),
                       "--k", "30", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert [row[0] for row in rows] == ["author", "bellamy", "smith, j"]
    assert {len(row) for row in rows} == {5}
    code, out, _ = run(capsys, "delta", "--corpus", str(corpus_dir),
                       "--candidate", str(candidate), "--k", "30", "--format", "csv")
    assert code == 0
    assert {len(row) for row in csv.reader(out.splitlines())} == {3}


def test_delta_missing_corpus_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "delta", "--corpus", str(tmp_path / "nope"),
                       "--candidate", str(tmp_path / "nope.txt"))
    assert code == 2


def test_matrix_subcommand(capsys, tmp_path):
    corpus_dir, candidate = write_corpus(tmp_path)
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "corpus": "corpus",
        "candidate": "candidate.txt",
        "configs": [3, 8],
        "seed": 13,
        "payload": "KEY",
        "k": 30,
    }), encoding="utf-8")
    out_file = tmp_path / "report.json"
    code, _, err = run(capsys, "matrix", "--config", str(run_file),
                       "--output", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert len(report["rows"]) == 4
    code, out, _ = run(capsys, "matrix", "--config", str(run_file),
                       "--format", "markdown")
    assert code == 0
    assert "Burrows' Delta" in out


def test_matrix_hashes_crlf_candidate_as_its_bytes(capsys, tmp_path):
    corpus_dir, candidate = write_corpus(tmp_path)
    text = candidate.read_text(encoding="utf-8")
    candidate.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "corpus": "corpus", "candidate": "candidate.txt",
        "configs": [3], "seed": 1, "k": 30,
    }), encoding="utf-8")
    code, out, _ = run(capsys, "matrix", "--config", str(run_file))
    assert code == 0
    expected = hashlib.sha256(candidate.read_bytes()).hexdigest()
    assert json.loads(out)["metadata"]["candidate_hash"] == expected


def test_matrix_prints_payload_overflow_to_stderr(capsys, tmp_path):
    corpus_dir, candidate = write_corpus(tmp_path)
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "corpus": "corpus", "candidate": "candidate.txt",
        "configs": [3, 8], "seed": 1, "payload": "ABCDE", "k": 30,
    }), encoding="utf-8")
    code, out, err = run(capsys, "matrix", "--config", str(run_file))
    assert code == 0
    assert json.loads(out)["warnings"] == [
        {"config": 8, "stage": "steganography", "dropped": 2}
    ]
    assert err == "warning: config 8: 2 secret letter(s) exceeded the carrier line count\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--message", "A1B", "--lenient"],
        ["weave", "--word", "hello", "--message", "A1B", "--lenient"],
    ],
    ids=lambda argv: argv[0],
)
def test_lenient_commands_print_dropped_characters_as_one_warning_line(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "stylocloak.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        encoding="utf-8",
    )
    assert done.returncode == 0
    assert done.stderr == "warning: dropped 1 unsupported character(s)\n"


def test_transform_prints_payload_overflow_as_one_warning_line(tmp_path):
    carrier = tmp_path / "t.txt"
    carrier.write_text("only line\n", encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "stylocloak.cli", "transform", str(carrier),
         "--config-id", "8", "--payload", "ABC"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        encoding="utf-8",
    )
    assert done.returncode == 0
    assert done.stderr == "warning: 2 secret letter(s) exceeded the carrier line count\n"


def test_dispatch_prints_any_warning_as_one_line(capsys, monkeypatch):
    def noisy(args):
        warnings.warn("a note from a handler", UserWarning)
        return 0

    monkeypatch.setattr(cli, "cmd_scan", noisy)
    assert run(capsys, "scan", "-") == (0, "", "warning: a note from a handler\n")


def test_deeply_nested_run_file_is_data_error(capsys, tmp_path):
    run_file = tmp_path / "run.json"
    run_file.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run(capsys, "matrix", "--config", str(run_file))
    assert (code, out) == (2, "")
    assert err == "error: run file nests deeper than the JSON parser allows\n"


def test_matrix_unknown_run_file_key_is_data_error(capsys, tmp_path):
    write_corpus(tmp_path)
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "corpus": "corpus", "candidate": "candidate.txt", "options": {"bogus": 1},
    }), encoding="utf-8")
    code, out, err = run(capsys, "matrix", "--config", str(run_file))
    assert code == 2
    assert out == ""
    assert "'bogus'" in err


@pytest.mark.parametrize(
    "run_json, named",
    [
        ("[]", "JSON object"),
        ('{"backends": ["x"]}', "'backends'"),
        ('{"backends": {"translation": {"kind": "http", "target": 5}}}', "'target'"),
        (
            '{"chain": ["de"], "backends": {"translation": '
            '{"kind": "external-command", "target": "cat", "timeout": "x"}}}',
            "'timeout'",
        ),
        ('{"options": []}', "'options'"),
        ('{"configs": 5}', "'configs'"),
        ('{"configs": [true]}', "'configs'"),
        ('{"k": null}', "'k'"),
        ('{"k": true}', "'k'"),
        ('{"seed": "3"}', "'seed'"),
        ('{"chain": 5}', "'chain'"),
        ('{"corpus": 5}', "'corpus'"),
        ('{"payload": 5}', "'payload'"),
        ('{"strip": "false"}', "'strip'"),
        ('{"options": {"model_order": "x"}}', "'model_order'"),
        ('{"options": {"imitation_ratio": false}}', "'imitation_ratio'"),
    ],
)
def test_matrix_run_file_of_wrong_shape_is_data_error(capsys, tmp_path, run_json, named):
    write_corpus(tmp_path)
    raw = json.loads(run_json)
    if isinstance(raw, dict):
        raw = {"corpus": "corpus", "candidate": "candidate.txt", "k": 30, **raw}
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(capsys, "matrix", "--config", str(run_file))
    assert code == 2
    assert out == ""
    assert named in err


def test_matrix_run_file_number_option_takes_an_integer(capsys, tmp_path):
    write_corpus(tmp_path)
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "corpus": "corpus", "candidate": "candidate.txt", "configs": [3], "k": 30,
        "options": {"substitution_rate": 1, "imitation_ratio": 0},
    }), encoding="utf-8")
    code, out, _ = run(capsys, "matrix", "--config", str(run_file))
    assert code == 0
    assert json.loads(out)["errors"] == []


def test_matrix_stdout_json_purity(capsys, tmp_path):
    corpus_dir, candidate = write_corpus(tmp_path)
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "corpus": "corpus", "candidate": "candidate.txt",
        "configs": [8], "seed": 1, "payload": "A", "k": 30,
    }), encoding="utf-8")
    code, out, _ = run(capsys, "matrix", "--config", str(run_file))
    assert code == 0
    json.loads(out)


# --- exit-code contract --------------------------------------------------------

def test_usage_error_exits_1(capsys):
    assert dispatch(["no-such-command"]) == 1
    capsys.readouterr()
    assert dispatch(["weave"]) == 1  # missing required --word
    capsys.readouterr()
    assert dispatch([]) == 1


#: A command backend that answers a JSON list instead of an object.
LIST_REPLY = f'cmd:{sys.executable} -c "print([1])"'
#: An integer with more digits than ``int`` converts.
LONG_INTEGER = "1" + "0" * 5000


def conversion_error(digits: str) -> str:
    """Python's own message for an integer ``int`` will not convert.

    Python 3.10 words the limit differently from later versions.
    """
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    return "no error"


# Each case gives a command, its run file (a dict over a config-2 run, or raw
# text), its exit code, the last line of its stderr and, for a config that
# aborts, the report's error.
@pytest.mark.parametrize(
    "argv, run_json, code, last_line, errors",
    [
        (["matrix", "--config", "run.json"], {"corpus": None}, 2,
         "error: run file lacks the top-level key 'corpus'", None),
        (["matrix", "--config", "run.json"], {"candidate": None}, 2,
         "error: run file lacks the top-level key 'candidate'", None),
        (["matrix", "--config", "run.json"], "{not json", 2,
         "error: Expecting property name enclosed in double quotes: line 1 column 2 "
         "(char 1)", None),
        (["scan", "latin1.txt"], None, 2,
         "error: 'utf-8' codec can't decode byte 0xe9 in position 3: invalid "
         "continuation byte", None),
        (["delta", "--corpus", "corpus", "--candidate", "candidate.txt", "--k", "0"],
         None, 2, "error: k must be >= 1", None),
        (["transform", "candidate.txt", "--config-id", "99"], None, 2,
         "error: config id must be 1..15, got 99", None),
        (["transform", "candidate.txt", "--stage", "translation",
          "--backend", "cmd:foo 'bar", "--chain", "de"], None, 2,
         "error: stage 'translation' failed: No closing quotation", None),
        (["matrix", "--config", "run.json"],
         {"chain": ["de"], "backends": {"translation": {"kind": "http",
                                                        "target": "notaurl"}}},
         0, "", "unknown url type: 'notaurl'"),
        (["matrix", "--config", "run.json"],
         {"chain": ["de"], "backends": {"translation": "cmd:foo\0bar"}},
         0, "", "embedded null byte"),
        (["weave", "--word", "ab\udcff", "--message", "A"], None, 2,
         "error: 'utf-8' codec can't encode character '\\udcff' in position 4: "
         "surrogates not allowed", None),
        (["features", "--corpus", "corpus", "--ngrams", "2..x"], None, 1,
         "stylocloak features: error: argument --ngrams: expected MIN..MAX, "
         "got '2..x'", None),
        (["matrix", "--config", "run.json"], {"options": {"weave_strategy": "x"}}, 2,
         "error: unknown options key 'weave_strategy' in run file", None),
        (["matrix", "--config", "run.json"],
         '{"corpus": "corpus", "candidate": "candidate.txt", '
         '"options": {"imitation_ratio": NaN}}', 2,
         "error: run file number NaN is not finite", None),
        (["transform", "candidate.txt", "--stage", "imitation",
          "--imitation-ratio", "inf"], None, 2,
         "error: imitation_ratio must be finite, got inf", None),
        (["transform", "candidate.txt", "--stage", "translation",
          "--backend", "cmd: ", "--chain", "de"], None, 2,
         "error: backend kind 'external-command' requires a target", None),
        (["transform", "candidate.txt", "--stage", "translation",
          "--backend", LIST_REPLY, "--chain", "de"], None, 3,
         "backend error: stage 'translation' failed: backend reply is not "
         "{'text': ...}: list indices must be integers or slices, not str", None),
        (["matrix", "--config", "run.json"],
         '{"corpus": "corpus", "candidate": "candidate.txt", "seed": '
         + LONG_INTEGER + "}", 2, "error: " + conversion_error(LONG_INTEGER), None),
    ],
    ids=[
        "run-file-without-corpus", "run-file-without-candidate", "run-file-not-json",
        "non-utf8-input", "delta-k-0", "config-id-99", "unbalanced-quote", "http-notaurl",
        "nul-in-command", "unencodable-word", "malformed-ngrams",
        "weave-strategy-key", "nan-in-run-file", "infinite-imitation-ratio",
        "empty-command", "list-reply", "integer-too-long",
    ],
)
def test_exit_code_and_message(
    capsys, tmp_path, monkeypatch, argv, run_json, code, last_line, errors
):
    write_corpus(tmp_path)
    (tmp_path / "latin1.txt").write_bytes("caf\u00e9\n".encode("latin-1"))
    if isinstance(run_json, dict):
        raw = {"corpus": "corpus", "candidate": "candidate.txt", "configs": [2],
               "k": 30, **run_json}
        run_json = json.dumps({k: v for k, v in raw.items() if v is not None})
    if run_json is not None:
        (tmp_path / "run.json").write_text(run_json, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    got, out, err = run(capsys, *argv)
    assert got == code
    assert (err.splitlines() or [""])[-1] == last_line
    if code != 1:
        assert len(err.splitlines()) <= 1
    if errors is not None:
        assert [e["error"] for e in json.loads(out)["errors"]] == [errors]


@pytest.mark.parametrize(
    "backends, named",
    [
        ({"imitation": "cmd:false"}, "'imitation'"),
        ({"obfuscation": "http://127.0.0.1:9/x"}, "'obfuscation'"),
        (
            {"imitation": "cmd:false", "obfuscation": "http://127.0.0.1:9/x",
             "bogus-stage": "builtin"},
            "'bogus-stage'",
        ),
    ],
    ids=["imitation", "obfuscation", "three-keys"],
)
def test_run_file_backend_for_a_stage_without_one_is_data_error(
    capsys, tmp_path, backends, named
):
    write_corpus(tmp_path)
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "corpus": "corpus", "candidate": "candidate.txt", "configs": [1, 3],
        "k": 30, "backends": {"translation": "builtin", **backends},
    }), encoding="utf-8")
    code, out, err = run(capsys, "matrix", "--config", str(run_file))
    assert (code, out) == (2, "")
    assert err == f"error: unknown backends key {named} in run file\n"


def test_run_file_backend_of_the_wrong_type_is_data_error(capsys, tmp_path):
    write_corpus(tmp_path)
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "corpus": "corpus", "candidate": "candidate.txt",
        "backends": {"translation": 5},
    }), encoding="utf-8")
    code, out, err = run(capsys, "matrix", "--config", str(run_file))
    assert (code, out) == (2, "")
    assert err == (
        "error: backends key 'translation' in run file must be a string or an "
        "object, got an integer\n"
    )


TIMEOUT_MESSAGE = "backend timeout must be a positive finite number of seconds, got "


@pytest.mark.parametrize(
    "timeout, message",
    [
        ("0", TIMEOUT_MESSAGE + "0"),
        ("-1", TIMEOUT_MESSAGE + "-1"),
        # the run-file reader refuses a number that is not finite first
        ("Infinity", "run file number Infinity is not finite"),
    ],
)
def test_run_file_backend_timeout_must_be_positive_and_finite(
    capsys, tmp_path, timeout, message
):
    write_corpus(tmp_path)
    run_file = tmp_path / "run.json"
    backend = '{"kind": "external-command", "target": "cat", "timeout": %s}' % timeout
    run_file.write_text(
        '{"corpus": "corpus", "candidate": "candidate.txt", "configs": [1], '
        '"k": 30, "backends": {"translation": %s}}' % backend,
        encoding="utf-8",
    )
    code, out, err = run(capsys, "matrix", "--config", str(run_file))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("timeout", ["1e300", "1" + "0" * 300], ids=["1e300", "10**300"])
def test_run_file_backend_timeout_above_one_day_is_refused_as_it_loads(
    capsys, tmp_path, timeout
):
    write_corpus(tmp_path)
    run_file = tmp_path / "run.json"
    backend = '{"kind": "external-command", "target": "cat", "timeout": %s}' % timeout
    run_file.write_text(
        '{"corpus": "corpus", "candidate": "candidate.txt", "chain": ["fr"], '
        '"k": 30, "backends": {"translation": %s}}' % backend,
        encoding="utf-8",
    )
    code, out, err = run(capsys, "matrix", "--config", str(run_file))
    assert (code, out) == (2, "")
    assert err == (
        "error: backend timeout must be at most 86400 seconds (one day), "
        f"got {json.loads(timeout)!r}\n"
    )


def test_deeply_nested_backend_reply_is_backend_error(capsys, tmp_path):
    deep = "import sys; sys.stdin.read(); print('[' * 100000 + ']' * 100000)"
    backend = "cmd:" + shlex.join([sys.executable, "-c", deep])
    (tmp_path / "t.txt").write_text(SAMPLE_TEXT, encoding="utf-8")
    code, out, err = run(
        capsys, "transform", str(tmp_path / "t.txt"), "--stage", "translation",
        "--chain", "fr", "--backend", backend,
    )
    assert (code, out) == (3, "")
    assert err.startswith(
        "backend error: stage 'translation' failed: backend reply is not "
        "{'text': ...}: maximum recursion depth exceeded"
    )
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["--stage", "imitation", "--imitation-ratio", "1e308"], "1e+308"),
        (["--stage", "imitation", "--imitation-ratio", "1e6"], "1000000.0"),
        (["--stage", "imitation", "--imitation-ratio", "-0.5"], "-0.5"),
        (["--config-id", "15", "--imitation-ratio", "1.01"], "1.01"),
    ],
    ids=["1e308", "1e6", "negative", "config-15"],
)
def test_transform_imitation_ratio_outside_0_1_is_data_error(
    capsys, tmp_path, argv, shown
):
    (tmp_path / "t.txt").write_text(SAMPLE_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "transform", str(tmp_path / "t.txt"), *argv)
    assert (code, out) == (2, "")
    assert err == f"error: imitation_ratio must be in [0, 1], got {shown}\n"


@pytest.mark.parametrize(
    "ratio, shown", [(2, "2"), (-1, "-1"), (1e308, "1e+308")],
    ids=["2", "negative", "1e308"],
)
def test_run_file_imitation_ratio_outside_0_1_is_data_error(
    capsys, tmp_path, ratio, shown
):
    write_corpus(tmp_path)
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "corpus": "corpus", "candidate": "candidate.txt", "configs": [1],
        "options": {"imitation_ratio": ratio},
    }), encoding="utf-8")
    code, out, err = run(capsys, "matrix", "--config", str(run_file))
    assert (code, out) == (2, "")
    assert err == f"error: imitation_ratio must be in [0, 1], got {shown}\n"


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["--stage", "obfuscation", "--rate", "5"], "5.0"),
        (["--stage", "obfuscation", "--rate", "1e308"], "1e+308"),
        (["--stage", "obfuscation", "--rate", "-1"], "-1.0"),
        (["--config-id", "13", "--rate", "1.01"], "1.01"),
    ],
    ids=["5", "1e308", "negative", "config-13"],
)
def test_transform_rate_outside_0_1_is_data_error(capsys, tmp_path, argv, shown):
    (tmp_path / "t.txt").write_text(SAMPLE_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "transform", str(tmp_path / "t.txt"), *argv)
    assert (code, out) == (2, "")
    assert err == f"error: substitution_rate must be in [0, 1], got {shown}\n"


@pytest.mark.parametrize(
    "rate, shown", [(5, "5"), (-1, "-1"), (1e308, "1e+308")],
    ids=["5", "negative", "1e308"],
)
def test_run_file_substitution_rate_outside_0_1_is_data_error(
    capsys, tmp_path, rate, shown
):
    write_corpus(tmp_path)
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "corpus": "corpus", "candidate": "candidate.txt", "configs": [3],
        "options": {"substitution_rate": rate},
    }), encoding="utf-8")
    code, out, err = run(capsys, "matrix", "--config", str(run_file))
    assert (code, out) == (2, "")
    assert err == f"error: substitution_rate must be in [0, 1], got {shown}\n"


@pytest.mark.parametrize(
    "argv, config_id",
    [
        (["--stage", "obfuscation"], 3),
        (["--stage", "imitation"], 1),
        (["--config-id", "8", "--payload", "A"], 8),
    ],
    ids=["obfuscation", "imitation", "config-8"],
)
def test_transform_backend_without_the_translation_stage_is_data_error(
    capsys, tmp_path, argv, config_id
):
    (tmp_path / "t.txt").write_text(SAMPLE_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "transform", str(tmp_path / "t.txt"), *argv,
                         "--backend", "cmd:false")
    assert (code, out) == (2, "")
    assert err == (
        "error: --backend applies only to the translation stage, which config "
        f"{config_id} does not run\n"
    )


@pytest.mark.parametrize("command", ["matrix", "transform"])
def test_a_bug_in_a_stage_propagates(capsys, tmp_path, monkeypatch, command):
    def broken(*args):
        raise TypeError("a bug in a stage")

    write_corpus(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({
        "corpus": "corpus", "candidate": "candidate.txt", "configs": [3], "k": 30,
    }), encoding="utf-8")
    monkeypatch.setattr(transforms, "obfuscate", broken)
    argv = {
        "matrix": ["matrix", "--config", str(tmp_path / "run.json")],
        "transform": ["transform", str(tmp_path / "candidate.txt"),
                      "--stage", "obfuscation"],
    }[command]
    with pytest.raises(TypeError, match="a bug"):
        dispatch(argv)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_a_bug_in_a_handler_propagates(capsys, tmp_path, monkeypatch, error):
    def broken(args):
        raise error("a bug, not a data error")

    monkeypatch.setattr(cli, "cmd_scan", broken)
    with pytest.raises(error, match="a bug"):
        dispatch(["scan", str(tmp_path / "unread.txt")])
    assert capsys.readouterr().err == ""


def test_every_exception_class_is_a_stylocloak_error_or_warning():
    import importlib
    import inspect
    import pkgutil

    import stylocloak

    modules = [stylocloak] + [
        importlib.import_module(f"stylocloak.{info.name}")
        for info in pkgutil.iter_modules(stylocloak.__path__)
    ]
    classes = [
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and issubclass(cls, BaseException)
    ]
    assert len(classes) >= 10
    for cls in classes:
        assert issubclass(cls, (StylocloakError, Warning)), cls


# --- import budget: a command loads only the modules it runs -----------------

#: Modules that importing the CLI, and running its codec and weaving commands
#: on ASCII text, must not load.
HEAVY_MODULES = (
    "stylocloak.pipeline",
    "stylocloak.transforms",
    "stylocloak.styloscope",
    "regex",
    "urllib.request",
    "subprocess",
    "dataclasses",
    "inspect",
)


def modules_loaded_by(statement, cwd, heavy=HEAVY_MODULES):
    """The ``heavy`` modules that ``statement`` loads in a fresh interpreter."""
    script = "\n".join([
        "import json, sys",
        "before = set(sys.modules)",
        statement,
        f"heavy = {heavy!r}",
        "loaded = [m for m in heavy if m in sys.modules and m not in before]",
        "print(json.dumps(loaded), file=sys.stderr)",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.splitlines()[-1])


def test_importing_the_cli_loads_no_command_module(tmp_path):
    assert modules_loaded_by("import stylocloak.cli", tmp_path) == []


def test_importing_the_pipeline_loads_no_backend_client(tmp_path):
    loaded = modules_loaded_by("import stylocloak.pipeline", tmp_path)
    assert not {"urllib.request", "subprocess"} & set(loaded)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "carrier.txt"],
        ["strip", "stego.txt"],
        ["decode", "stream.txt"],
        ["extract-lines", "stego.txt"],
        ["embed-lines", "carrier.txt", "--message", "KEY"],
        ["encode", "--message", "KEY"],
        ["weave", "--word", "alpha", "--message", "KEY"],
    ],
    ids=lambda argv: argv[0],
)
def test_codec_commands_load_no_command_module(tmp_path, argv):
    carrier = "alpha beta\ngamma delta\n\nepsilon zeta\n"
    (tmp_path / "carrier.txt").write_text(carrier, encoding="utf-8")
    (tmp_path / "stego.txt").write_text(
        weaver.embed_into_text(carrier, "KEY"), encoding="utf-8"
    )
    (tmp_path / "stream.txt").write_text(
        "pa" + zwcodec.encode_message("HI") + "per\n", encoding="utf-8"
    )
    statement = (
        "from stylocloak.cli import dispatch\n"
        f"if dispatch({argv!r}) != 0: raise SystemExit('command failed')"
    )
    assert modules_loaded_by(statement, tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["features", "--corpus", "corpus", "--candidate", "candidate.txt"],
        ["delta", "--corpus", "corpus", "--candidate", "candidate.txt", "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_scoring_commands_load_neither_pipeline_nor_hashlib(tmp_path, argv):
    write_corpus(tmp_path)
    statement = (
        "import contextlib, io\n"
        "from stylocloak.cli import dispatch\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = dispatch({argv!r})\n"
        "if code != 0: raise SystemExit('command failed')"
    )
    heavy = ("stylocloak.pipeline", "stylocloak.transforms", "hashlib")
    assert modules_loaded_by(statement, tmp_path, heavy) == []


# --- documentation -------------------------------------------------------------

def test_readme_cli_tour_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    tour = readme.split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    commands = [
        line.split(" #", 1)[0].split(" >", 1)[0]
        for line in tour.splitlines()
        if line.startswith("stylocloak ")
    ]
    assert len(commands) >= 10
    parser = build_parser()
    for command in commands:
        argv = shlex.split(command)[1:]
        assert parser.parse_args(argv).handler, command
