"""Each config's text, recorded where :func:`run_matrix` takes it.

The grid scores a shaping node from the text ``pipeline._run_stages``
returns, and a steganography leaf from that text and the word edits
``weaver._woven_words`` returns for it; it never builds the leaf's text.
The recorder rebuilds it from those edits, so that the grid tests can
compare each config's text with ``apply_config`` and each row with
``score_delta`` on that text.
"""

import contextlib

import pytest

from stylocloak import pipeline, weaver
from stylocloak.styloscope import Document, score_delta


@contextlib.contextmanager
def recorded_grid_texts():
    """Yield a list that fills with ``(config, text)``, one per config scored.

    Entries come in grid order.  A config whose stages fail is not
    recorded.  The patches last only as long as the ``with`` block.
    """
    texts = []
    run_stages, woven_words = pipeline._run_stages, weaver._woven_words

    def walked(text, config, *args):
        node, shaped = run_stages(text, config, *args)
        texts.append((config, shaped))
        return node, shaped

    def woven(text, secret, *args):
        edits, dropped = woven_words(text, secret, *args)
        config, shaped = texts[-1]
        assert (shaped, secret) == (text, config.payload)
        pieces, done = [], 0
        for start, word, woven_word in edits:
            assert text[start : start + len(word)] == word
            pieces += text[done:start], woven_word
            done = start + len(word)
        texts[-1] = config, "".join(pieces) + text[done:]
        return edits, dropped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_run_stages", walked)
        patch.setattr(weaver, "_woven_words", woven)
        yield texts


def assert_rows_score_the_texts(report, fitted, texts):
    """Each recorded config's rows hold ``score_delta`` of its text, float for float."""
    authors = sorted(fitted.author_z)
    assert len(report.rows) == len(texts) * len(authors)
    for n, (config, text) in enumerate(texts):
        fresh = score_delta(fitted, Document(id="fresh", text=text))
        rows = report.rows[n * len(authors) : (n + 1) * len(authors)]
        for row, author in zip(rows, authors):
            assert (row.config, row.author) == (config.id, author)
            assert row.delta_adversarial == fresh.deltas[author]
            assert row.probability_adversarial == fresh.probabilities[author]
