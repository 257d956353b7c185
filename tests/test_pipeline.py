import hashlib
import json
import shlex
import sys
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylocloak import DataError, StylocloakError, pipeline, styloscope, transforms
from stylocloak import weaver, zwcodec
from stylocloak.pipeline import (
    CANONICAL_ORDER,
    CONFIG_STAGES,
    MatrixReport,
    PipelineConfig,
    StageError,
    apply_config,
    emit_report,
    load_matrix_spec,
    run_matrix,
    stage_seed,
)
from stylocloak.styloscope import Document
from stylocloak.styloscope import fit_delta_reference, score_delta, tokenize
from stylocloak.synthcorpus import STYLE_A, candidate_for, two_author_corpus
from stylocloak.transforms import BackendSpec
from stylocloak.zwcodec import strip_zero_width

from grid_texts import assert_rows_score_the_texts, grid_texts

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
    prefixes = {
        stages[:depth]
        for stages in CONFIG_STAGES.values()
        for depth in range(1, len(stages) + 1)
    }
    assert len(prefixes) == 15  # the grid's trie: one node per config
    assert len({stage_seed(42, prefix) for prefix in prefixes}) == 15
    # sha256("42:obfuscation"), so the same on every Python and every run
    assert stage_seed(42, ("obfuscation",)) == 7986411168106289570
    assert stage_seed(42, CANONICAL_ORDER) == 17205009912186663134


# --- apply_config ------------------------------------------------------------

def test_steganography_only_preserves_visible_text():
    config = PipelineConfig(id=8, seed=1, payload="AB")
    out, dropped = apply_config(SAMPLE, config)
    assert dropped == 0
    assert strip_zero_width(out)[0] == SAMPLE
    assert out != SAMPLE


#: A carrier with a stray U+200C on line 3, the kind a copy-paste leaves.
DIRTY_CARRIER = SAMPLE + (
    "The old bri\u200cdge crossed the water near the house.\n"
    "You stood there and the river was quiet.\n"
)


def test_dirty_carrier_is_stripped_before_any_stage():
    clean = strip_zero_width(DIRTY_CARRIER)[0]
    imitated, _ = apply_config(DIRTY_CARRIER, PipelineConfig(id=1, seed=1))
    assert strip_zero_width(imitated) == (imitated, "")
    assert imitated.startswith(clean)
    trained_on_dirty, _ = apply_config(
        clean, PipelineConfig(id=1, seed=1), imitation_source=DIRTY_CARRIER
    )
    assert trained_on_dirty == imitated
    for config_id in (8, 9):  # the payload ends before line 3
        config = PipelineConfig(id=config_id, seed=1, payload="AB")
        stego, _ = apply_config(DIRTY_CARRIER, config)
        assert weaver.extract_from_text(stego) == "AB"


def test_obfuscation_only_single_sentence_rate_zero_is_identity():
    config = PipelineConfig(id=3, seed=1, substitution_rate=0.0)
    assert apply_config("One quiet sentence here.", config) == (
        "One quiet sentence here.", 0
    )


def test_config_15_runs_all_stages_in_canonical_order(monkeypatch):
    calls = []

    def fake_translate(text, chain, backend, seed):
        calls.append("translation")
        return text + " t", None

    def fake_imitate(model, length, seed):
        calls.append("imitation")
        return "i"

    def fake_obfuscate(text, seed, rate, jitter):
        calls.append("obfuscation")
        return text + " o", None

    monkeypatch.setattr(transforms, "_translated", fake_translate)
    monkeypatch.setattr(transforms, "imitate", fake_imitate)
    monkeypatch.setattr(transforms, "_obfuscated", fake_obfuscate)
    config = PipelineConfig(id=15, seed=1, payload="A")
    out, _ = apply_config(SAMPLE, config)
    assert calls == ["translation", "imitation", "obfuscation"]
    assert strip_zero_width(out)[1]  # steganography ran last


def test_stage_error_carries_stage_name():
    backend = BackendSpec(kind="external-command", target="false")
    config = PipelineConfig(
        id=2, seed=1, translation_backend=backend, chain=("de",)
    )
    with pytest.raises(StageError) as exc:
        apply_config(SAMPLE, config)
    assert exc.value.stage == "translation"
    assert isinstance(exc.value.cause, transforms.BackendUnavailable)


def test_a_bug_in_a_stage_is_not_a_stage_error(monkeypatch):
    def broken(*args):
        raise TypeError("a bug in a stage")

    monkeypatch.setattr(transforms, "_obfuscated", broken)
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    with pytest.raises(TypeError, match="a bug"):
        apply_config(SAMPLE, PipelineConfig(id=3))
    with pytest.raises(TypeError, match="a bug"):
        run_matrix(candidate, small_reference(), [PipelineConfig(id=3)], k=30)


@pytest.mark.parametrize("field", ["substitution_rate", "imitation_ratio"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_stage_options_refuse_a_non_finite_rate(field, value):
    with pytest.raises(DataError, match=f"{field} must be finite"):
        PipelineConfig(1, **{field: value})


@pytest.mark.parametrize("value", [-1e308, -0.01, 1.01, 1e6, 1e308])
def test_stage_options_refuse_an_imitation_ratio_outside_0_1(value):
    with pytest.raises(DataError) as exc:
        PipelineConfig(1, imitation_ratio=value)
    assert str(exc.value) == f"imitation_ratio must be in [0, 1], got {value}"


@pytest.mark.parametrize("value", [0, 0.0, 0.25, 1, 1.0])
def test_stage_options_accept_an_imitation_ratio_in_0_1(value):
    assert PipelineConfig(1, imitation_ratio=value).imitation_ratio == value


@pytest.mark.parametrize("value", [-1e308, -1, -0.01, 1.01, 5, 1e308])
def test_stage_options_refuse_a_substitution_rate_outside_0_1(value):
    with pytest.raises(DataError) as exc:
        PipelineConfig(1, substitution_rate=value)
    assert str(exc.value) == f"substitution_rate must be in [0, 1], got {value}"


@pytest.mark.parametrize("value", [0, 0.0, 0.3, 1, 1.0])
def test_stage_options_accept_a_substitution_rate_in_0_1(value):
    assert PipelineConfig(1, substitution_rate=value).substitution_rate == value


@pytest.mark.parametrize("field", ["substitution_rate", "imitation_ratio"])
def test_stage_options_refuse_an_integer_too_large_for_a_float(field):
    # math.isfinite raises OverflowError on such an int
    with pytest.raises(DataError) as exc:
        PipelineConfig(1, **{field: 10**400})
    assert str(exc.value) == f"{field} must be in [0, 1], got {10**400}"


@pytest.mark.parametrize("chain", [("",), ("fr", ""), (" ",), ("de", "\t\n")])
def test_stage_options_refuse_an_empty_pivot_language(chain):
    with pytest.raises(DataError) as exc:
        PipelineConfig(1, chain=chain)
    assert str(exc.value) == f"chain holds an empty pivot language: {list(chain)}"


@pytest.mark.parametrize("config_id", [3, 15])
@pytest.mark.parametrize("order", [0, -1])
def test_every_config_refuses_a_model_order_below_1(config_id, order):
    with pytest.raises(DataError) as exc:
        PipelineConfig(config_id, model_order=order)
    assert str(exc.value) == f"model_order must be >= 1, got {order}"


@pytest.mark.parametrize("config_id", [3, 8])
@pytest.mark.parametrize("char", ["\u0131", "\u017f"])
def test_every_config_refuses_a_payload_letter_outside_a_z(config_id, char):
    with pytest.raises(zwcodec.UnsupportedCharacter) as exc:
        PipelineConfig(config_id, payload="KEY" + char)
    assert (exc.value.position, exc.value.char) == (3, char)


@pytest.mark.parametrize(
    "given", [{"substitution_rate": 5}, {"model_order": 0}, {"payload": "A B"}]
)
def test_make_configs_checks_the_inputs_of_an_empty_grid(given):
    with pytest.raises(DataError):
        pipeline.make_configs([], given)


def test_imitation_appends_styled_text():
    config = PipelineConfig(id=1, seed=7)
    out, _ = apply_config(SAMPLE, config)
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
    # One grid call, so that the configs share the stripped candidate and
    # the stage trie: stripped, config x + 8 is config x, and config 8 the
    # candidate itself.
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    configs = [PipelineConfig(id=i, seed=1, payload="AB") for i in sorted(CONFIG_STAGES)]
    report = run_matrix(candidate, reference, configs, k=30, strip=True)
    assert not report.errors
    rows = {}
    for row in report.rows:
        rows.setdefault(row.config, []).append(row._replace(config=None))
    for row in rows[8]:
        assert row.delta_adversarial == row.delta_reference
        assert row.probability_adversarial == row.probability_reference
        assert row.delta_change == 0.0
    for config_id in range(1, 8):
        assert rows[config_id + 8] == rows[config_id]


def test_matrix_records_aborted_configs_and_continues():
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    backend = BackendSpec(kind="external-command", target="false")
    configs = [
        PipelineConfig(id=2, seed=1, translation_backend=backend, chain=("de",)),
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


@pytest.mark.parametrize("source", [None, DIRTY_CARRIER], ids=["text", "given"])
def test_a_walk_strips_its_text_and_its_imitation_source_once(monkeypatch, source):
    stripped = count_calls(monkeypatch, pipeline, "strip_zero_width")
    configs = [PipelineConfig(id=1, seed=1, model_order=order) for order in (2, 3)]
    walked = list(pipeline._walk(DIRTY_CARRIER, configs, source))
    assert not any(isinstance(result, StageError) for _, result, _, _ in walked)
    assert stripped == [(DIRTY_CARRIER,)] * (1 if source is None else 2)


# --- the stage trie: one stage run per prefix, seeded by the prefix ------------

TRANSLATION_CONFIGS = [2, 4, 6, 7, 10, 12, 14, 15]

#: Words with and without synonyms, separators, a zero-width point and
#: multi-character graphemes, so that every stage has something to do.
TOKENS = [
    "the", "big", "house", "quiet", "river", "You", "walked", "slowly", "old",
    "road", "caf\u00e9", "\U0001F468\u200d\U0001F469", "a\u200bb", " ", " ",
    ". ", "! ", "\n", "\r\n", "\n\n",
]
CANDIDATE_TEXTS = st.lists(st.sampled_from(TOKENS), max_size=80).map("".join) | (
    st.builds(
        candidate_for, st.just(STYLE_A), st.integers(0, 2**32), st.integers(0, 800)
    )
    .map(lambda doc: doc.text)
)


@settings(max_examples=40, deadline=None)
@given(
    text=CANDIDATE_TEXTS,
    seed=st.integers(-(2**63), 2**63),
    payload=st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", max_size=12),
)
def test_stripped_steganography_config_is_its_twin_without_it(text, seed, payload):
    def outcome(config_id):
        try:
            config = PipelineConfig(config_id, seed, payload)
            return "text", strip_zero_width(apply_config(text, config)[0])[0]
        except StageError as exc:
            return "error", exc.stage, str(exc.cause)

    assert outcome(8) == ("text", strip_zero_width(text)[0])
    for config_id in range(1, 8):
        assert outcome(config_id + 8) == outcome(config_id)


@settings(max_examples=40, deadline=None)
@given(
    text=CANDIDATE_TEXTS,
    source=CANDIDATE_TEXTS,
    seed=st.integers(-(2**63), 2**63),
    payload=st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", max_size=12),
)
def test_a_shaping_node_holds_no_point(text, source, seed, payload):
    # run_matrix measures configs 1-7 as apply_config gives them, strip or not
    stream = zwcodec.encode_message(payload)
    text, source = (
        weaver.embed_linewise(strip_zero_width(t)[0], payload)[0] + stream
        for t in (text, source)
    )
    for config_id in range(1, 8):
        try:
            shaped = apply_config(text, PipelineConfig(config_id, seed), source)[0]
        except StageError:
            continue  # a source too short to train on aborts imitation
        assert zwcodec.POINTS.isdisjoint(shaped)


def test_matrix_runs_each_stage_prefix_once(monkeypatch):
    runs = {
        name: count_calls(monkeypatch, module, name)
        for module, name in [
            (transforms, "_translated"),
            (transforms, "imitate"),
            (transforms, "_obfuscated"),
            (weaver, "_woven_words"),
        ]
    }
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    report = run_matrix(candidate, small_reference(), grid_configs(), k=30)
    assert not report.errors
    # one run per trie node: 1 translation, 2 imitation, 4 obfuscation and
    # 8 steganography nodes, where seeding by config id took 32 runs
    assert {name: len(calls) for name, calls in runs.items()} == {
        "_translated": 1, "imitate": 2, "_obfuscated": 4, "_woven_words": 8,
    }


@settings(max_examples=40, deadline=None)
@given(
    text=CANDIDATE_TEXTS,
    seed=st.integers(-(2**63), 2**63),
    payload=st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", max_size=12),
)
def test_each_leaf_edit_weaves_the_word_it_replaces(text, seed, payload):
    configs = [PipelineConfig(i, seed, payload) for i in sorted(CONFIG_STAGES)]
    for config, node, edits, dropped in pipeline._walk(text, configs, None):
        if isinstance(node, StageError):
            continue  # a text too short to train on aborts imitation
        result = node.text
        for start, word, woven in edits:
            assert result[start : start + len(word)] == word
            assert strip_zero_width(woven)[0] == word
        if config.stages[-1] == "steganography":
            leaf = weaver._spliced(result, edits)
            assert (leaf, dropped) == weaver.embed_linewise(result, payload)
            assert strip_zero_width(leaf)[0] == result
        else:
            assert (edits, dropped) == ((), 0)


def test_apply_config_gives_the_text_run_matrix_scores():
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    reference = small_reference()
    configs = grid_configs()
    report = run_matrix(candidate, reference, configs, k=30)
    texts = grid_texts(candidate, configs)
    assert not report.errors
    assert texts == [
        (config, apply_config(candidate.text, config)[0]) for config in configs
    ]
    assert_rows_score_the_texts(report, fit_delta_reference(reference, 30), texts)


def logging_backend(tmp_path, answers: bool):
    """A command backend that logs each call to a file, then answers or fails."""
    script, log = tmp_path / "backend.py", tmp_path / "calls.log"
    script.write_text(
        "import json, sys\n"
        "with open(sys.argv[1], 'a') as log:\n"
        "    log.write('call\\n')\n"
        + (
            "print(json.dumps({'text': json.load(sys.stdin)['text'] + ' pivot'}))\n"
            if answers
            else "sys.exit('backend down')\n"
        ),
        encoding="utf-8",
    )
    target = shlex.join([sys.executable, str(script), str(log)])
    return BackendSpec("external-command", target), log


def backend_grid(backend):
    return [
        PipelineConfig(
            i, seed=4, payload="KEY", translation_backend=backend, chain=("de",)
        )
        for i in sorted(CONFIG_STAGES)
    ]


#: For each config field a shaping node's text depends on, a value other
#: than the one in the test below; the translation backend is made there.
OTHER_SETTINGS = {
    "seed": 2,
    "chain": ("fr",),
    "substitution_rate": 1.0,
    "punctuation_jitter": True,
    "imitation_ratio": 0.5,
    "model_order": 2,
}


@pytest.mark.parametrize("field", [*OTHER_SETTINGS, "translation_backend"])
def test_configs_with_other_settings_share_no_stage_run(tmp_path, field):
    logging, _ = logging_backend(tmp_path, answers=True)
    script = tmp_path / "chain_backend.py"
    script.write_text(
        "import json, sys\n"
        "request = json.load(sys.stdin)\n"
        "text = request['text'] + ' ' + ' '.join(request['chain'])\n"
        "print(json.dumps({'text': text}))\n",
        encoding="utf-8",
    )
    backend = BackendSpec("external-command", shlex.join([sys.executable, str(script)]))
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    # Config 15 is config 7 plus steganography, so it runs every shaping
    # stage; the twin differs from the first config in one field.
    base = PipelineConfig(
        7, seed=1, payload="KEY", translation_backend=backend, chain=("de",)
    )
    other = {**OTHER_SETTINGS, "translation_backend": logging}
    twin = base._replace(**{field: other[field]})
    configs = [base, twin._replace(id=15)]
    report = run_matrix(candidate, reference, configs, k=30)
    texts = grid_texts(candidate, configs)
    assert [config for config, _ in texts] == configs
    stripped = [strip_zero_width(text)[0] for _, text in texts]
    assert stripped[1] == apply_config(candidate.text, twin)[0]
    assert stripped[0] != stripped[1]
    assert_rows_score_the_texts(report, fit_delta_reference(reference, 30), texts)


def test_configs_that_differ_only_in_payload_share_their_shaping_runs(monkeypatch):
    runs = {
        name: count_calls(monkeypatch, module, name)
        for module, name in [
            (transforms, "_translated"),
            (transforms, "_obfuscated"),
            (weaver, "_woven_words"),
        ]
    }
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    configs = [PipelineConfig(14, seed=1, payload=p) for p in ("A", "KEY")]
    report = run_matrix(candidate, small_reference(), configs, k=30)
    assert not report.errors
    assert {name: len(calls) for name, calls in runs.items()} == {
        "_translated": 1, "_obfuscated": 1, "_woven_words": 2,
    }
    assert [args[1] for args in runs["_woven_words"]] == ["A", "KEY"]


def test_a_point_in_a_backend_reply_is_stripped_where_it_enters(tmp_path):
    # A backend's reply is the one text a stage takes from outside; it is
    # stripped as it arrives, so its points are neither scored nor in the
    # way of the steganography leaf.
    script = tmp_path / "backend.py"
    script.write_text(
        "import json, sys\n"
        "text = json.load(sys.stdin)['text']\n"
        "print(json.dumps({'text': 'wo\\u200brd ' + text}))\n",
        encoding="utf-8",
    )
    backend = BackendSpec("external-command", shlex.join([sys.executable, str(script)]))
    configs = [
        PipelineConfig(
            i, seed=1, payload="AB", translation_backend=backend, chain=("de",)
        )
        for i in (2, 10)
    ]
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    reference = small_reference()
    report = run_matrix(candidate, reference, configs, k=30)
    texts = grid_texts(candidate, configs)
    assert report.errors == ()
    assert [row.config for row in report.rows] == [2, 2, 10, 10]
    (_, translated), (_, woven) = texts
    assert translated.startswith("word ")
    assert strip_zero_width(translated) == (translated, "")
    assert strip_zero_width(woven)[0] == translated
    assert weaver.extract_from_text(woven) == "AB"
    assert_rows_score_the_texts(report, fit_delta_reference(reference, 30), texts)


def test_matrix_calls_a_shared_backend_once_per_call(tmp_path):
    backend, log = logging_backend(tmp_path, answers=True)
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    reference = small_reference()
    for calls in (1, 2):
        report = run_matrix(candidate, reference, backend_grid(backend), k=30)
        assert report.errors == ()
        assert len(report.rows) == 15 * 2
        assert log.read_text(encoding="utf-8") == "call\n" * calls


def test_matrix_failed_shared_translation_aborts_each_config_below_it(tmp_path):
    backend, log = logging_backend(tmp_path, answers=False)
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    report = run_matrix(candidate, small_reference(), backend_grid(backend), k=30)
    assert log.read_text(encoding="utf-8") == "call\n"
    assert [e["config"] for e in report.errors] == TRANSLATION_CONFIGS
    for error in report.errors:
        assert error == {
            "config": error["config"],
            "stage": "translation",
            "status": "aborted",
            "error": "backend command exited 1: backend down",
        }
    others = set(CONFIG_STAGES) - set(TRANSLATION_CONFIGS)
    assert {r.config for r in report.rows} == others
    assert len(report.rows) == 2 * len(others)


def test_matrix_rows_equal_fresh_burrows_delta_per_config():
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    configs = grid_configs()
    report = run_matrix(candidate, reference, configs, k=30)
    fitted = fit_delta_reference(reference, 30)
    base = score_delta(fitted, candidate)
    rows = {(row.config, row.author): row for row in report.rows}
    for config in configs:
        transformed, _ = apply_config(
            candidate.text, config, imitation_source=candidate.text
        )
        fresh = score_delta(fitted, Document(id="fresh", text=transformed))
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
        8: 1, 10: 1, 11: 1, 14: 1,
    }
    assert {w["stage"] for w in report.warnings} == {"steganography"}
    assert json.loads(emit_report(report, "json"))["warnings"] == list(report.warnings)


def test_matrix_records_payload_overflow_without_warning_state(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_matrix swapped the process-wide warning filters")

    reference = two_author_corpus(1)
    candidate = candidate_for(STYLE_A, 1, 5000)
    configs = [PipelineConfig(id=i, seed=1, payload="MEETATDAWN") for i in range(1, 16)]
    # Undone before pytest reports, which itself calls catch_warnings.
    with monkeypatch.context() as patched:
        patched.setattr(warnings, "catch_warnings", refuse)
        report = run_matrix(candidate, reference, configs, k=50)
    assert {w["config"]: w["dropped"] for w in report.warnings} == {
        8: 1, 10: 1, 11: 1, 14: 1,
    }


def test_apply_config_returns_payload_overflow():
    out, dropped = apply_config("only line\n", PipelineConfig(id=8, payload="ABC"))
    assert dropped == 2
    assert weaver.extract_from_text(out) == "A"


def test_matrix_passes_other_warnings_through(monkeypatch):
    real_obfuscate = transforms._obfuscated

    def noisy(*args):
        warnings.warn("obfuscation note", UserWarning)
        return real_obfuscate(*args)

    monkeypatch.setattr(transforms, "_obfuscated", noisy)
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    with pytest.warns(UserWarning, match="obfuscation note"):
        report = run_matrix(
            candidate, small_reference(), [PipelineConfig(id=3, seed=1)], k=30
        )
    assert report.warnings == ()


def test_config_names_one_translation_backend_and_the_report_records_it():
    backend = BackendSpec("http", "http://127.0.0.1:9/x")
    with pytest.raises(TypeError):
        PipelineConfig(id=3, backends={"imitation": backend})
    configs = [PipelineConfig(id=3, seed=1, translation_backend=backend),
               PipelineConfig(id=8, seed=1)]
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    report = run_matrix(candidate, small_reference(), configs, k=30)
    assert report.errors == ()
    assert report.metadata["backends"] == {
        "3": {"translation": "http:http://127.0.0.1:9/x"}
    }


def test_matrix_translation_failure_reported_before_imitation(monkeypatch):
    trained = count_calls(monkeypatch, transforms, "train_style_model")
    backend = BackendSpec(kind="external-command", target="false")
    config = PipelineConfig(
        id=4, seed=1, translation_backend=backend, chain=("de",)
    )
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    report = run_matrix(candidate, small_reference(), [config], k=30)
    assert [e["stage"] for e in report.errors] == ["translation"]
    assert trained == []


# --- steganography leaves, scored from their parent's counts ------------------

#: Cover words: Greek ending in a capital sigma (lowered by Final_Sigma),
#: non-BMP cased letters (Deseret), apostrophes, underscores, digits, a
#: combining accent and punctuation.
COVER_WORDS = [
    "\u039f\u0394\u039f\u03a3", "\u03a3", "\u039b\u038c\u0393\u039f\u03a3.",
    "\u03bb\u03cc\u03b3\u03bf\u03c2", "\U00010400\U00010401", "\U00010428x",
    "don't", "'tis", "O'NEIL's", "snake_case", "_init_", "x1", "2024", "a_1",
    "cafe\u0301", "the", "The", "of", "AND", "--", "(and)",
]
#: Separators: CRLF, blank and whitespace-only lines, NBSP and \x1c-\x1f.
COVER_SEPARATORS = [
    " ", "  ", "\t", "\n", "\r\n", "\n\n", "\n \n", "\r\n\r\n", "\xa0",
    "\x1c", "\x1d", "\x1e", "\x1f", "\u2028", "\x85",
]
COVERS = st.lists(
    st.tuples(st.sampled_from(COVER_SEPARATORS), st.sampled_from(COVER_WORDS)),
    max_size=14,
).map(lambda pairs: "".join(sep + word for sep, word in pairs))


@settings(max_examples=300, deadline=None)
@given(
    cover=COVERS,
    payload=st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", max_size=16),
)
def test_a_leafs_derived_counts_equal_a_count_of_its_woven_text(cover, payload):
    # Payloads run up to 16 letters, so many outlive the cover's lines.
    # Counter equality ignores zero counts but not a negative one.
    woven, _ = weaver.embed_linewise(cover, payload)
    edits, _ = weaver._woven_words(cover, payload)
    derived = pipeline._woven_bag(Counter(tokenize(cover)), edits)
    expected = Counter(tokenize(woven))
    assert derived == expected
    assert derived.total() == expected.total()


#: Table words, and beside them final sigmas, a dotted capital I,
#: apostrophes, underscores and non-ASCII words, in both orders.
BAG_WORDS = [
    "big", "Big", "BIG", "house", "quiet", "river", "walked", "old", "road",
    "the", "of", "x1", "\u0391\u03a3.", "\u039f\u0394\u039f\u03a3,", "\u0130",
    "\u0130big", "big\u0130", "\u03a3big", "big\u03a3", "don't", "'big", "big'",
    "big's", "O'BIG", "snake_case", "_big", "big_", "caf\u00e9", "big\u00e9",
    "na\u00efve",
]
#: Separators: sentence ends, jitter targets and whitespace of every kind.
BAG_SEPARATORS = [
    " ", " ", ". ", ", ", "; ", ": ", "! ", "? ", ".\n", "\n", "'", "-", "\xa0",
    " , ", ".\r\n", "\u2028",
]
BAG_TEXTS = st.lists(
    st.tuples(st.sampled_from(BAG_WORDS), st.sampled_from(BAG_SEPARATORS)),
    max_size=40,
).map(lambda pairs: "".join(word + sep for word, sep in pairs))


@settings(max_examples=200, deadline=None)
@given(
    text=BAG_TEXTS,
    source=st.none() | BAG_TEXTS,
    seed=st.integers(0, 2**64),
    rate=st.sampled_from([0.0, 0.3, 1.0]),
    jitter=st.booleans(),
    ratio=st.sampled_from([0.0, 1.0]),
    order=st.sampled_from([1, 2, 3]),
)
def test_every_nodes_derived_bag_equals_a_count_of_its_text(
    text, source, seed, rate, jitter, ratio, order
):
    given_options = {
        "seed": seed, "substitution_rate": rate, "punctuation_jitter": jitter,
        "imitation_ratio": ratio, "model_order": order,
    }
    configs = pipeline.make_configs(range(1, 8), given_options)
    bags = {}
    # Configs 1-7 end at the 7 shaping nodes, each derived from its parent's
    # bag as the walk reaches it.
    for _, node, _, _ in pipeline._walk(text, configs, source):
        if isinstance(node, StageError):  # a short source aborts imitation
            continue
        # Every builtin stage reports a record, so no node is counted whole.
        assert node.record is not None
        bag = pipeline._bag_of(node, bags)
        expected = Counter(tokenize(node.text))
        assert bag == expected
        assert bag.total() == expected.total()
        assert min(bag.values(), default=0) >= 0


def record_counted_texts(patch, seen):
    """Append to ``seen`` each text that the package counts or tokenizes."""
    for module, name in ((styloscope, "_count_words"), (styloscope, "tokenize"),
                         (pipeline, "_count_words"), (pipeline, "tokenize")):

        def recording(text, real=getattr(module, name)):
            seen.append(text)
            return real(text)

        patch.setattr(module, name, recording)


@pytest.mark.parametrize("strip", [False, True])
def test_a_grid_tokenizes_each_node_once(monkeypatch, strip):
    reference = small_reference()
    candidate = candidate_for(STYLE_A, seed=3, n_chars=1200)
    configs = grid_configs()
    shaping = {text for _, text in grid_texts(candidate, configs[:7])}
    counted = []
    generated = []
    real_imitate = transforms.imitate

    def imitating(*args):
        generated.append(real_imitate(*args))
        return generated[-1]

    record_counted_texts(monkeypatch, counted)
    monkeypatch.setattr(transforms, "imitate", imitating)
    report = run_matrix(candidate, reference, configs, k=30, strip=strip)
    assert not report.errors
    fitted_texts = {doc.text for doc in reference.documents}
    texts = [text for text in counted if text not in fitted_texts]
    # The candidate, which is also config 8's parent, then the text that
    # each of the two imitation nodes generated; every other shaping node
    # is counted from its parent's bag, never whole.  Without strip
    # each leaf tokenizes its payload's words and their woven forms, and no
    # more.
    assert len(generated) == 2 and all(generated)
    assert texts[:3] == [candidate.text, *generated]
    assert len(shaping) == 7 and shaping.isdisjoint(texts)
    assert len(texts) == 3 + (0 if strip else 2 * 8)
    assert sum(map(len, texts[3:])) < len(candidate.text)


@pytest.mark.parametrize("strip", [False, True])
@settings(max_examples=25, deadline=None)
@given(cover=COVERS, seed=st.integers(min_value=0, max_value=3))
def test_a_second_grid_over_the_same_reference_counts_no_reference_text(
    strip, cover, seed
):
    # Neither text holds a point, so stripped each is its own copy and keeps
    # its bag of words.
    reference = two_author_corpus(seed=seed, n_docs=2, chars_per_doc=400)
    candidate = Document(id="cand", text="the cat sat on it\n" + cover)
    runs = []
    for _ in range(2):
        counted = []
        with pytest.MonkeyPatch.context() as patch:
            record_counted_texts(patch, counted)
            report = run_matrix(candidate, reference, grid_configs(), k=30, strip=strip)
            runs.append((emit_report(report), counted))
    (first, once), (second, again) = runs
    assert second == first
    for doc in reference.documents:
        assert (once.count(doc.text), again.count(doc.text)) == (1, 0)
    # The base is counted once, and a node whose text is the candidate's
    # takes the base's score.
    assert again.count(candidate.text) == 0


def test_a_node_that_changes_nothing_takes_the_base_score(monkeypatch):
    # Obfuscating one sentence with no substitutions gives the candidate's
    # own text, so config 3 and config 11's parent are scored as the base.
    counted = []
    record_counted_texts(monkeypatch, counted)
    reference = two_author_corpus(seed=0, n_docs=2, chars_per_doc=400)
    candidate = Document(id="cand", text="The cat sat on the mat.\n")
    configs = pipeline.make_configs([3, 11], {"substitution_rate": 0, "payload": "A"})
    report = run_matrix(candidate, reference, configs, k=30)
    assert not report.errors
    assert counted.count(candidate.text) == 1
    texts = grid_texts(candidate, configs)
    assert texts[0] == (configs[0], candidate.text)
    assert_rows_score_the_texts(report, fit_delta_reference(reference, 30), texts)


def test_a_candidate_with_points_scores_its_leaves_from_its_stripped_text():
    # Config 8's parent is the stripped candidate, so it cannot take the
    # counts of the base score, which measures the points too.
    reference = small_reference()
    clean = candidate_for(STYLE_A, seed=3, n_chars=1200)
    woven, _ = weaver.embed_linewise(clean.text, "ZZZZ")
    candidate = Document(id="dirty", text=woven)
    configs = grid_configs()
    report = run_matrix(candidate, reference, configs, k=30)
    texts = grid_texts(candidate, configs)
    assert texts[7] == (configs[7], apply_config(clean.text, configs[7])[0])
    assert_rows_score_the_texts(report, fit_delta_reference(reference, 30), texts)


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
    with pytest.raises(ValueError, match="^unknown report format 'xml'$") as exc:
        emit_report(empty_report(), "xml")
    assert not isinstance(exc.value, StylocloakError)


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
    assert [c.id for c in spec["configs"]] == [3, 8]
    assert spec["k"] == 30
    assert spec["configs"][0].substitution_rate == 0.4
    assert spec["configs"][0].seed == 21
    report = run_matrix(
        spec["candidate"], spec["reference"], list(spec["configs"]), k=spec["k"]
    )
    assert len(report.rows) == 4


def test_load_matrix_spec_parses_backends(tmp_path):
    run_file = write_run_dir(tmp_path)
    raw = json.loads(run_file.read_text())
    raw["backends"] = {"translation": "cmd:my-translator --fast"}
    run_file.write_text(json.dumps(raw), encoding="utf-8")
    spec = load_matrix_spec(run_file)
    backend = spec["configs"][0].translation_backend
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
    assert load_matrix_spec(run_file)["configs"][0].chain == ("de", "fr")


def test_load_matrix_spec_keeps_crlf(tmp_path):
    run_file = write_run_dir(tmp_path, configs=(3,))
    crlf = "The first line.\r\nThe second line.\r\n" * 20
    (tmp_path / "candidate.txt").write_bytes(crlf.encode("utf-8"))
    (tmp_path / "style.txt").write_bytes(crlf.encode("utf-8"))
    raw = json.loads(run_file.read_text())
    raw["imitation_source"] = "style.txt"
    run_file.write_text(json.dumps(raw), encoding="utf-8")
    spec = load_matrix_spec(run_file)
    assert spec["candidate"].text == crlf
    assert spec["imitation_source"] == crlf
    report = run_matrix(
        spec["candidate"], spec["reference"], list(spec["configs"]), k=spec["k"]
    )
    expected = hashlib.sha256((tmp_path / "candidate.txt").read_bytes()).hexdigest()
    assert report.metadata["candidate_hash"] == expected


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_matrix_spec_refuses_a_non_finite_number(tmp_path, number):
    run_file = write_run_dir(tmp_path)
    text = run_file.read_text(encoding="utf-8").replace("0.4", number)
    run_file.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=f"run file number {number} is not finite"):
        load_matrix_spec(run_file)


def test_run_file_options_are_the_stage_options_except_chain():
    names = {"substitution_rate", "punctuation_jitter", "imitation_ratio", "model_order"}
    assert set(pipeline._OPTION_TYPES) == names


@pytest.mark.parametrize(
    "value, changes",
    [
        (PipelineConfig(1), {"imitation_ratio": 2}),
        (PipelineConfig(1), {"id": 99}),
        (PipelineConfig(1), {"payload": "A B"}),
        (transforms.BackendSpec("http", "http://x"), {"timeout": -1}),
    ],
    ids=[
        "PipelineConfig-option", "PipelineConfig", "PipelineConfig-payload", "BackendSpec"
    ],
)
def test_replace_is_checked_like_the_constructor(value, changes):
    with pytest.raises(DataError) as built:
        type(value)(**{**value._asdict(), **changes})
    with pytest.raises(DataError) as replaced:
        value._replace(**changes)
    assert type(replaced.value) is type(built.value)
    assert str(replaced.value) == str(built.value)


def test_run_file_key_messages_share_one_shape(tmp_path):
    run_file = write_run_dir(tmp_path)
    raw = json.loads(run_file.read_text())
    cases = [
        ({"options": {"model_order": "3"}},
         "options key 'model_order' in run file must be an integer, got a string"),
        ({"backends": {"translation": {"kind": "http", "timeout": "5"}}},
         "backend key 'timeout' in run file must be a number, got a string"),
        ({"backends": {"translation": {"kind": "http", "url": "x"}}},
         "unknown backend key 'url' in run file"),
        ({"configs": [3, "8"]},
         "top-level key 'configs' in run file must be a list of integers, "
         "got a list"),
    ]
    for change, message in cases:
        run_file.write_text(json.dumps({**raw, **change}), encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_matrix_spec(run_file)
        assert str(exc.value) == message


@pytest.mark.parametrize("key", ["k", "timeout"])
def test_run_file_integer_too_long_to_convert_is_data_error(tmp_path, key):
    run_file = write_run_dir(tmp_path)
    raw = json.loads(run_file.read_text())
    raw["backends"] = {
        "translation": {"kind": "http", "target": "http://x", "timeout": 30}
    }
    text = json.dumps(raw).replace(f'"{key}": 30', f'"{key}": -{"9" * 5000}')
    run_file.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match="^Exceeds the limit"):
        load_matrix_spec(run_file)


# --- run files from outside -------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(st.characters(), max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def json_objects(values_by_key):
    """Objects with some of the given keys, each valued by its strategy; half
    of them also get one key, known or junk, set to any JSON value."""
    drawn = st.fixed_dictionaries({}, optional=values_by_key)
    keys = st.sampled_from(sorted(values_by_key)) | st.text(max_size=4)
    tweak = st.dictionaries(keys, JSON_VALUES, min_size=1, max_size=1)
    return drawn | st.builds(lambda base, extra: {**base, **extra}, drawn, tweak)


BACKEND_OBJECTS = json_objects({
    "kind": st.sampled_from(transforms.BACKEND_KINDS),
    "target": st.sampled_from(["", "cat", "http://127.0.0.1:9/x"]),
    "timeout": st.floats(0, 60),
})
RUN_KEYS = json_objects({
    "corpus": st.just("corpus"),
    "candidate": st.just("candidate.txt"),
    "configs": st.lists(st.integers(1, 16), max_size=3),
    "seed": st.integers(),
    "payload": st.text("AZ", max_size=3),
    "k": st.integers(1, 60),
    "strip": st.booleans(),
    "chain": st.lists(st.sampled_from(["de", "fr"]), max_size=2),
    "backends": json_objects({
        "translation": st.sampled_from(["builtin", "cmd:cat", "ftp://x"])
        | BACKEND_OBJECTS,
    }),
    "options": json_objects({
        "substitution_rate": st.floats(0, 1.5),
        "punctuation_jitter": st.booleans(),
        "imitation_ratio": st.floats(0, 1.5),
        "model_order": st.integers(1, 5),
    }),
    "imitation_source": st.sampled_from(["candidate.txt", "corpus"]),
})
# Half the run files start from a corpus and a candidate that exist, so that
# more of them reach the options, the configs and the backend.
RUN_FILES = st.builds(
    lambda base, drawn: {**base, **drawn},
    st.sampled_from([{}, {"corpus": "corpus", "candidate": "candidate.txt"}]),
    RUN_KEYS,
)


@pytest.fixture(scope="module")
def run_workspace(tmp_path_factory):
    workspace = tmp_path_factory.mktemp("workspace")
    for author in ("a", "b"):
        (workspace / "corpus" / author).mkdir(parents=True)
        for n in (1, 2):
            text = f"The {author} and the {n} of it, as it was.\n" * n
            (workspace / "corpus" / author / f"{n}.txt").write_text(text)
    (workspace / "candidate.txt").write_text("It was the one and the other.\n")
    return workspace


@settings(max_examples=200, deadline=None)
@given(raw=RUN_FILES | JSON_VALUES)
def test_any_run_file_loads_or_is_refused(run_workspace, raw):
    run_file = run_workspace / "run.json"
    run_file.write_text(json.dumps(raw), encoding="utf-8")
    try:
        load_matrix_spec(run_file)
    except DataError:
        pass
    except OSError as exc:  # a path that names no readable file
        assert exc.filename is not None
    except UnicodeEncodeError as exc:  # a path no file system can hold
        assert exc.reason == "surrogates not allowed"


@given(value=JSON_VALUES | BACKEND_OBJECTS)
def test_any_backend_spec_parses_or_is_refused(value):
    try:
        assert isinstance(BackendSpec.parse(value), BackendSpec)
    except DataError:
        pass


# --- golden reports ----------------------------------------------------------

# sha256 of the JSON report on the benchmark's grid inputs.  Any change to a
# transform's output, a Delta value or the report layout changes these.
GOLDEN_REPORT_SHA256 = {
    1: "4ea812ee521521cb8ee307f56783e46820386de6c54522e4705dbd7a1a8e4db4",
    7: "adda8c1371d43eae1d447c723cec6474e15ba301cae44e01e599c6ca99f3d0ad",
}


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_REPORT_SHA256))
def test_grid_report_matches_golden_hash(seed):
    candidate = candidate_for(STYLE_A, seed, 5000)
    configs = [PipelineConfig(id=i, seed=seed, payload="MEETATDAWN") for i in range(1, 16)]
    report = run_matrix(candidate, two_author_corpus(seed), configs, k=50)
    assert sha256_text(emit_report(report, "json")) == GOLDEN_REPORT_SHA256[seed]


# The same with strip=True, where each leaf takes its parent's score.
GOLDEN_STRIP_REPORT_SHA256 = {
    1: "cb5434cde451deb67503785a9c9137e1acf6771d47c5f8a0a1b1df45c3f2a177",
    7: "0680a71444e721b272a51217c8e915c90bf6dcf1dc8930ac574783b40a395d22",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_STRIP_REPORT_SHA256))
def test_strip_grid_report_matches_golden_hash(seed):
    candidate = candidate_for(STYLE_A, seed, 5000)
    configs = [PipelineConfig(id=i, seed=seed, payload="MEETATDAWN") for i in range(1, 16)]
    report = run_matrix(candidate, two_author_corpus(seed), configs, k=50, strip=True)
    digest = sha256_text(emit_report(report, "json"))
    assert digest == GOLDEN_STRIP_REPORT_SHA256[seed]
