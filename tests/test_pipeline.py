import dataclasses
import hashlib
import json
import runpy
import sys
import warnings
from pathlib import Path

import pytest

from stylocloak import pipeline, transforms, zwcodec
from stylocloak.pipeline import (
    CANONICAL_ORDER,
    CONFIG_STAGES,
    MatrixReport,
    PipelineConfig,
    StageError,
    StageOptions,
    UnsupportedFormat,
    apply_config,
    emit_report,
    load_matrix_spec,
    run_matrix,
    stage_seed,
)
from stylocloak.styloscope import Document, burrows_delta
from stylocloak.synthcorpus import STYLE_A, candidate_for, two_author_corpus
from stylocloak.transforms import BackendSpec
from stylocloak.zwcodec import strip_zero_width

pytestmark = pytest.mark.filterwarnings("ignore::stylocloak.weaver.SecretOverflow")

SAMPLE = (
    "The big house stood near the quiet river. You walked there slowly.\n"
    "A small road led away from the old bridge. It was completely silent.\n"
)


def small_reference():
    return two_author_corpus(seed=3, n_docs=3, chars_per_doc=1500)


# --- config table ------------------------------------------------------------

def test_config_table_covers_ids_1_to_15_uniquely():
    assert sorted(CONFIG_STAGES) == list(range(1, 16))
    stage_sets = [frozenset(stages) for stages in CONFIG_STAGES.values()]
    assert len(set(stage_sets)) == 15


def test_config_table_spot_checks():
    assert CONFIG_STAGES[3] == ("obfuscation",)
    assert CONFIG_STAGES[8] == ("steganography",)
    assert CONFIG_STAGES[10] == ("translation", "steganography")
    assert set(CONFIG_STAGES[15]) == set(CANONICAL_ORDER)


def test_every_config_is_canonical_subsequence():
    for stages in CONFIG_STAGES.values():
        positions = [CANONICAL_ORDER.index(s) for s in stages]
        assert positions == sorted(positions)


def test_config_normalizes_declared_stage_order():
    assert PipelineConfig(id=15).stages == CANONICAL_ORDER


def test_config_rejects_wrong_stage_set():
    with pytest.raises(ValueError):
        PipelineConfig(id=0)
    with pytest.raises(ValueError):
        PipelineConfig(id=16)


def test_stage_seeds_are_distinct_and_stable():
    seeds = {
        (cid, stage): stage_seed(42, cid, stage)
        for cid in CONFIG_STAGES
        for stage in CONFIG_STAGES[cid]
    }
    assert len(set(seeds.values())) == len(seeds)
    assert stage_seed(42, 3, "obfuscation") == stage_seed(42, 3, "obfuscation")


# --- apply_config ------------------------------------------------------------

def test_steganography_only_preserves_visible_text():
    config = PipelineConfig(id=8, seed=1, payload="AB")
    out = apply_config(SAMPLE, config)
    assert strip_zero_width(out)[0] == SAMPLE
    assert out != SAMPLE


def test_obfuscation_only_single_sentence_rate_zero_is_identity():
    config = PipelineConfig(id=3, seed=1, options=StageOptions(substitution_rate=0.0))
    assert apply_config("One quiet sentence here.", config) == "One quiet sentence here."


def test_config_15_runs_all_stages_in_canonical_order(monkeypatch):
    calls = []

    def fake_translate(text, chain, backend, seed):
        calls.append("translation")
        return text + " t"

    def fake_imitate(model, length, seed):
        calls.append("imitation")
        return "i"

    def fake_obfuscate(text, seed, rate, jitter):
        calls.append("obfuscation")
        return text + " o"

    monkeypatch.setattr(transforms, "round_trip_translate", fake_translate)
    monkeypatch.setattr(transforms, "imitate", fake_imitate)
    monkeypatch.setattr(transforms, "obfuscate", fake_obfuscate)
    config = PipelineConfig(id=15, seed=1, payload="A")
    out = apply_config(SAMPLE, config)
    assert calls == ["translation", "imitation", "obfuscation"]
    assert strip_zero_width(out)[1]  # steganography ran last


def test_stage_error_carries_stage_name():
    backend = BackendSpec(kind="external-command", target="false")
    config = PipelineConfig(
        id=2, seed=1, backends={"translation": backend},
        options=StageOptions(chain=("de",)),
    )
    with pytest.raises(StageError) as exc:
        apply_config(SAMPLE, config)
    assert exc.value.stage == "translation"
    assert isinstance(exc.value.cause, transforms.BackendUnavailable)


def test_imitation_appends_styled_text():
    config = PipelineConfig(id=1, seed=7)
    out = apply_config(SAMPLE, config)
    assert out.startswith(SAMPLE)
    assert len(out) > len(SAMPLE)


# --- run_matrix --------------------------------------------------------------

def test_matrix_row_shape_and_reference_constancy():
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    configs = [PipelineConfig(id=i, seed=9, payload="KEY") for i in (2, 3, 8)]
    report = run_matrix(candidate, reference, configs, k=30)
    assert len(report.rows) == len(configs) * 2
    for author in ("ashford", "bellamy"):
        refs = {r.delta_reference for r in report.rows if r.author == author}
        assert len(refs) == 1
    for row in report.rows:
        assert row.delta_change == row.delta_reference - row.delta_adversarial


def test_matrix_config8_with_strip_matches_original():
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    report = run_matrix(
        candidate, reference, [PipelineConfig(id=8, seed=1, payload="AB")],
        k=30, strip=True,
    )
    for row in report.rows:
        assert row.delta_adversarial == row.delta_reference
        assert row.delta_change == 0.0


def test_matrix_records_aborted_configs_and_continues():
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    backend = BackendSpec(kind="external-command", target="false")
    configs = [
        PipelineConfig(
            id=2, seed=1, backends={"translation": backend},
            options=StageOptions(chain=("de",)),
        ),
        PipelineConfig(id=3, seed=1),
    ]
    report = run_matrix(candidate, reference, configs, k=30)
    assert len(report.errors) == 1
    assert report.errors[0]["config"] == 2
    assert report.errors[0]["status"] == "aborted"
    assert report.errors[0]["stage"] == "translation"
    assert {r.config for r in report.rows} == {3}


def test_matrix_metadata_includes_hashes_and_seeds():
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    report = run_matrix(candidate, reference, [PipelineConfig(id=3, seed=5)], k=30)
    assert report.metadata["reference_hash"] == reference.content_hash()
    assert report.metadata["seeds"] == {"3": 5}
    assert report.metadata["k"] == 30


def test_matrix_reproducibility_byte_identical():
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    configs = [PipelineConfig(id=i, seed=11, payload="HID") for i in (1, 3, 8, 15)]
    one = emit_report(run_matrix(candidate, reference, configs, k=30), "json")
    two = emit_report(run_matrix(candidate, reference, configs, k=30), "json")
    assert one == two


# --- shared work within one run_matrix call ------------------------------------

IMITATION_CONFIGS = {1, 4, 5, 7, 9, 12, 13, 15}


def grid_configs():
    return [PipelineConfig(id=i, seed=4, payload="KEY") for i in sorted(CONFIG_STAGES)]


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_matrix_trains_style_model_and_fits_reference_once(monkeypatch):
    trained = count_calls(monkeypatch, transforms, "train_style_model")
    fitted = count_calls(monkeypatch, pipeline, "fit_delta_reference")
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    report = run_matrix(candidate, small_reference(), grid_configs(), k=30)
    assert not report.errors
    assert len(report.rows) == 15 * 2
    assert len(trained) == 1
    assert len(fitted) == 1


def test_matrix_style_model_memo_lasts_one_call(monkeypatch):
    trained = count_calls(monkeypatch, transforms, "train_style_model")
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    reference = small_reference()
    run_matrix(candidate, reference, grid_configs(), k=30)
    run_matrix(candidate, reference, grid_configs(), k=30)
    assert len(trained) == 2


def test_matrix_rows_equal_fresh_burrows_delta_per_config():
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    configs = grid_configs()
    report = run_matrix(candidate, reference, configs, k=30)
    base = burrows_delta(reference, candidate, k=30)
    rows = {(row.config, row.author): row for row in report.rows}
    for config in configs:
        transformed = apply_config(candidate.text, config, imitation_source=candidate.text)
        fresh = burrows_delta(reference, Document(id="fresh", text=transformed), k=30)
        for author in reference.authors:
            row = rows[config.id, author]
            assert row.delta_adversarial == fresh.deltas[author]
            assert row.probability_adversarial == fresh.probabilities[author]
            assert row.delta_reference == base.deltas[author]
            assert row.probability_reference == base.probabilities[author]


def test_matrix_too_small_imitation_source_aborts_each_imitation_config():
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    report = run_matrix(
        candidate, small_reference(), grid_configs(), k=30, imitation_source="abc"
    )
    assert {e["config"] for e in report.errors} == IMITATION_CONFIGS
    for error in report.errors:
        assert error["stage"] == "imitation"
        assert error["status"] == "aborted"
    assert {r.config for r in report.rows} == set(CONFIG_STAGES) - IMITATION_CONFIGS


def test_matrix_empty_imitation_source_is_not_replaced_by_the_candidate(monkeypatch):
    trained = count_calls(monkeypatch, transforms, "train_style_model")
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    report = run_matrix(
        candidate, small_reference(), grid_configs(), k=30, imitation_source=""
    )
    assert {e["config"] for e in report.errors} == IMITATION_CONFIGS
    assert {e["stage"] for e in report.errors} == {"imitation"}
    assert all(args[0] == "" for args in trained)


def test_matrix_records_payload_overflow_in_config_order():
    # the benchmark's grid at seed 1: a 9-line candidate and a 10-letter payload
    reference = two_author_corpus(1)
    candidate = candidate_for(STYLE_A, 1, 5000)
    configs = [PipelineConfig(id=i, seed=1, payload="MEETATDAWN") for i in range(1, 16)]
    report = run_matrix(candidate, reference, configs, k=50)
    assert report.errors == ()
    assert [w["config"] for w in report.warnings] == [8, 10, 11, 14]
    assert {w["config"]: w["dropped"] for w in report.warnings} == {
        8: 1, 10: 1, 11: 1, 14: 2,
    }
    assert {w["stage"] for w in report.warnings} == {"steganography"}
    assert json.loads(emit_report(report, "json"))["warnings"] == list(report.warnings)


def test_matrix_passes_other_warnings_through(monkeypatch):
    real_obfuscate = transforms.obfuscate

    def noisy(*args):
        warnings.warn("obfuscation note", UserWarning)
        return real_obfuscate(*args)

    monkeypatch.setattr(transforms, "obfuscate", noisy)
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    with pytest.warns(UserWarning, match="obfuscation note"):
        report = run_matrix(
            candidate, small_reference(), [PipelineConfig(id=3, seed=1)], k=30
        )
    assert report.warnings == ()


def test_matrix_translation_failure_reported_before_imitation(monkeypatch):
    trained = count_calls(monkeypatch, transforms, "train_style_model")
    backend = BackendSpec(kind="external-command", target="false")
    config = PipelineConfig(
        id=4, seed=1, backends={"translation": backend},
        options=StageOptions(chain=("de",)),
    )
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    report = run_matrix(candidate, small_reference(), [config], k=30)
    assert [e["stage"] for e in report.errors] == ["translation"]
    assert trained == []


# --- emit_report -------------------------------------------------------------

def empty_report():
    return MatrixReport(rows=(), errors=(), metadata={"k": 1})


def test_emit_csv_empty_report_is_header_only():
    out = emit_report(empty_report(), "csv")
    assert out == (
        "config,author,delta_adversarial,delta_reference,"
        "probability_adversarial,probability_reference,delta_change\n"
    )


def test_emit_json_round_trips():
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    report = run_matrix(candidate, reference, [PipelineConfig(id=3, seed=2)], k=30)
    parsed = json.loads(emit_report(report, "json"))
    assert parsed["metadata"] == json.loads(json.dumps(report.metadata))
    assert len(parsed["rows"]) == len(report.rows)
    first = parsed["rows"][0]
    assert first["config"] == report.rows[0].config
    assert first["delta_adversarial"] == report.rows[0].delta_adversarial


def test_emit_markdown_has_delta_column_header():
    out = emit_report(empty_report(), "markdown")
    assert "Burrows' Delta" in out.splitlines()[0]


def test_emit_rejects_unknown_format():
    with pytest.raises(UnsupportedFormat):
        emit_report(empty_report(), "xml")


# --- run file ----------------------------------------------------------------

def write_run_dir(tmp_path, configs=(3, 8)):
    corpus_dir = tmp_path / "corpus"
    reference = small_reference()
    for doc in reference.documents:
        path = corpus_dir / doc.id
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(doc.text, encoding="utf-8")
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    (tmp_path / "candidate.txt").write_text(candidate.text, encoding="utf-8")
    run_file = tmp_path / "run.json"
    run_file.write_text(
        json.dumps(
            {
                "corpus": "corpus",
                "candidate": "candidate.txt",
                "configs": list(configs),
                "seed": 21,
                "payload": "SECRETKEY",
                "k": 30,
                "strip": False,
                "options": {"substitution_rate": 0.4},
            }
        ),
        encoding="utf-8",
    )
    return run_file


def test_load_matrix_spec_and_run(tmp_path):
    spec = load_matrix_spec(write_run_dir(tmp_path))
    assert [c.id for c in spec.configs] == [3, 8]
    assert spec.k == 30
    assert spec.configs[0].options.substitution_rate == 0.4
    assert spec.configs[0].seed == 21
    report = run_matrix(
        spec.candidate, spec.reference, list(spec.configs), k=spec.k
    )
    assert len(report.rows) == 4


def test_load_matrix_spec_parses_backends(tmp_path):
    run_file = write_run_dir(tmp_path)
    raw = json.loads(run_file.read_text())
    raw["backends"] = {"translation": "cmd:my-translator --fast"}
    run_file.write_text(json.dumps(raw), encoding="utf-8")
    spec = load_matrix_spec(run_file)
    backend = spec.configs[0].backends["translation"]
    assert backend.kind == "external-command"
    assert backend.target == "my-translator --fast"


@pytest.mark.parametrize(
    "change, key",
    [
        ({"ngrams": [2, 4]}, "ngrams"),
        ({"options": {"bogus": 1}}, "bogus"),
        ({"options": {"chain": ["de"]}}, "chain"),
        ({"backends": {"translation": {"kind": "http", "url": "x"}}}, "url"),
    ],
)
def test_load_matrix_spec_rejects_unknown_keys(tmp_path, change, key):
    run_file = write_run_dir(tmp_path)
    raw = json.loads(run_file.read_text())
    raw.update(change)
    run_file.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError, match=repr(key)):
        load_matrix_spec(run_file)


def test_load_matrix_spec_takes_chain_from_the_top_level(tmp_path):
    run_file = write_run_dir(tmp_path)
    raw = json.loads(run_file.read_text())
    raw["chain"] = ["de", "fr"]
    run_file.write_text(json.dumps(raw), encoding="utf-8")
    assert load_matrix_spec(run_file).configs[0].options.chain == ("de", "fr")


def test_load_matrix_spec_keeps_crlf(tmp_path):
    run_file = write_run_dir(tmp_path, configs=(3,))
    crlf = "The first line.\r\nThe second line.\r\n" * 20
    (tmp_path / "candidate.txt").write_bytes(crlf.encode("utf-8"))
    (tmp_path / "style.txt").write_bytes(crlf.encode("utf-8"))
    raw = json.loads(run_file.read_text())
    raw["imitation_source"] = "style.txt"
    run_file.write_text(json.dumps(raw), encoding="utf-8")
    spec = load_matrix_spec(run_file)
    assert spec.candidate.text == crlf
    assert spec.imitation_source == crlf
    report = run_matrix(spec.candidate, spec.reference, list(spec.configs), k=spec.k)
    expected = hashlib.sha256((tmp_path / "candidate.txt").read_bytes()).hexdigest()
    assert report.metadata["candidate_hash"] == expected


def test_run_file_options_are_the_stage_options_except_chain():
    names = {f.name for f in dataclasses.fields(StageOptions)} - {"chain"}
    assert set(pipeline._OPTION_TYPES) == names


# --- golden reports ----------------------------------------------------------

# sha256 of the JSON report on the benchmark's grid inputs.  Any change to a
# transform's output, a Delta value or the report layout changes these.
GOLDEN_REPORT_SHA256 = {
    1: "389e7785bd64db37d1404f0f023b209d7d9ea9eabe64acd1f7d54c8922fe99e6",
    7: "11fdbeb9d7cd56f9a16b03c7a371b3664270969a38a85a8e7f307013923fd5a8",
}


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_REPORT_SHA256))
def test_grid_report_matches_golden_hash(seed):
    candidate = candidate_for(STYLE_A, seed, 5000)
    configs = [PipelineConfig(id=i, seed=seed, payload="MEETATDAWN") for i in range(1, 16)]
    report = run_matrix(candidate, two_author_corpus(seed), configs, k=50)
    assert sha256_text(emit_report(report, "json")) == GOLDEN_REPORT_SHA256[seed]


def test_run_config_grid_script_prints_the_golden_report(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_config_grid.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--seed", "1", "--format", "json"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    start = out.index("\n{\n") + 1
    _, end = json.JSONDecoder().raw_decode(out, start)
    assert sha256_text(out[start:end]) == GOLDEN_REPORT_SHA256[1]
    assert "scanner verdict: True" in out
    assert "stripped text identical to candidate: True" in out
