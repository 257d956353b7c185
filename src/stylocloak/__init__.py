"""stylocloak: zero-width steganography plus adversarial stylometry tooling.

Subpackages by job:

- :mod:`stylocloak.zwcodec` -- encode/decode/strip/scan invisible payloads
- :mod:`stylocloak.weaver` -- place payloads inside words and across lines
- :mod:`stylocloak.styloscope` -- lexical features and Burrows' Delta
- :mod:`stylocloak.transforms` -- translation drift, imitation, obfuscation
- :mod:`stylocloak.pipeline` -- the 15-config experiment grid and reports
- :mod:`stylocloak.cli` -- the ``stylocloak`` command
"""

import os

__version__ = "0.1.0"


def _bundled_text(name: str) -> str:
    """A UTF-8 file of the package's ``data`` directory, read by its loader.

    Not :mod:`importlib.resources`: on Python 3.12 and later that loads
    :mod:`inspect` and :mod:`typing` into every command that reads a list.
    """
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __spec__.loader.get_data(path).decode("utf-8")


class StylocloakError(Exception):
    """A fault in what stylocloak was given, not in stylocloak itself.

    The CLI prints it and exits with ``exit_code``; any other exception is a
    bug and propagates with its traceback.
    """

    exit_code = 2


class DataError(StylocloakError, ValueError):
    """Malformed stream, bad corpus, bad run file or bad option (exit 2)."""


class _CheckedTuple(tuple):
    """A named tuple's first base: ``_check`` vets every value it builds."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


#: How a message names each JSON type.
_JSON_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean",
    list: "a list", dict: "an object", type(None): "null",
}


def check_json_object(raw: dict, types: dict, where: str) -> None:
    """Refuse a key missing from ``types`` or a value of another JSON type.

    A type is a Python type, a tuple of them (as ``isinstance`` takes it) or
    ``list[T]``; ``float`` takes any number, and a boolean is never a number.  The DataError reads
    ``unknown <where> key 'k' in run file`` or ``<where> key 'k' in run file
    must be <type>, got <type>``.
    """

    def fits(value, expected) -> bool:
        if getattr(expected, "__origin__", None) is list:
            (item,) = expected.__args__
            return isinstance(value, list) and all(fits(v, item) for v in value)
        if isinstance(value, bool):
            return expected is bool
        return isinstance(value, (int, float) if expected is float else expected)

    def name(expected) -> str:
        if isinstance(expected, tuple):
            return " or ".join(map(name, expected))
        if getattr(expected, "__origin__", None) is list:
            return f"a list of {name(expected.__args__[0]).split()[-1]}s"
        return _JSON_NAMES[expected]

    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise DataError(f"unknown {where} key {unknown[0]!r} in run file")
    for key, value in raw.items():
        if not fits(value, types[key]):
            raise DataError(
                f"{where} key {key!r} in run file must be "
                f"{name(types[key])}, got {name(type(value))}"
            )
