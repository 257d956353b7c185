"""Independent statement of the carrier line rule, for the weaver tests.

A carrier line ends after LF, so CRLF is one ending, and every other line
or paragraph separator is a character inside the line.  Shares no code
with stylocloak.weaver.
"""


def carrier_lines(text):
    """The carrier lines of ``text``, each without its LF; none for ``""``.

    For a cover written as ``"\\n".join(lines)`` with a non-empty last line,
    this gives ``lines`` back.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines
