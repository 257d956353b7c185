"""stylocloak: zero-width steganography plus adversarial stylometry tooling.

Subpackages by job:

- :mod:`stylocloak.zwcodec` -- encode/decode/strip/scan invisible payloads
- :mod:`stylocloak.weaver` -- place payloads inside words and across lines
- :mod:`stylocloak.styloscope` -- lexical features and Burrows' Delta
- :mod:`stylocloak.transforms` -- translation drift, imitation, obfuscation
- :mod:`stylocloak.pipeline` -- the 15-config experiment grid and reports
- :mod:`stylocloak.cli` -- the ``stylocloak`` command
"""

__version__ = "0.1.0"


class StylocloakError(Exception):
    """A fault in what stylocloak was given, not in stylocloak itself.

    The CLI prints it and exits with ``exit_code``; any other exception is a
    bug and propagates with its traceback.
    """

    exit_code = 2


class DataError(StylocloakError, ValueError):
    """Malformed stream, bad corpus, bad run file or bad option (exit 2)."""
