"""Each config's text as :func:`run_matrix` scores it, read from its walk.

The grid scores what ``pipeline._walk`` yields: a shaping node, and a
steganography leaf's parent node with its word edits; it never builds the
leaf's text.  :func:`grid_texts` splices those edits as
``apply_config`` does, so that the grid tests can compare each config's
text with ``apply_config`` and each row with ``score_delta`` on that text.
"""

from stylocloak import pipeline, weaver
from stylocloak.styloscope import Document, score_delta


def grid_texts(candidate, configs, source=None):
    """``(config, text)`` for each config of the grid that runs, in grid order."""
    walk = pipeline._walk(candidate.text, configs, source)
    return [
        (config, weaver._spliced(node.text, edits))
        for config, node, edits, _ in walk
        if not isinstance(node, pipeline.StageError)
    ]


def assert_rows_score_the_texts(report, fitted, texts):
    """Each config's rows hold ``score_delta`` of its text, float for float."""
    authors = sorted(fitted.author_z)
    assert len(report.rows) == len(texts) * len(authors)
    for n, (config, text) in enumerate(texts):
        fresh = score_delta(fitted, Document(id="fresh", text=text))
        rows = report.rows[n * len(authors) : (n + 1) * len(authors)]
        for row, author in zip(rows, authors):
            assert (row.config, row.author) == (config.id, author)
            assert row.delta_adversarial == fresh.deltas[author]
            assert row.probability_adversarial == fresh.probabilities[author]
