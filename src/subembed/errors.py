"""Exception hierarchy shared across the package, the input-file readers that
map undecodable text or unparsable JSON onto it, and short quotes of values
and keys."""

import json


class SubembedError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SubembedError):
    """An ensemble or experiment descriptor is invalid."""


class InputError(SubembedError):
    """An argument violates a documented precondition."""


class DegenerateInputError(InputError):
    """Numerically degenerate input (e.g. an all-zero spanning set)."""


class DimensionError(InputError):
    """Mismatched or out-of-range dimensions."""


class ResourceError(SubembedError):
    """A size or cardinality budget would be exceeded."""


def read_text(path) -> str:
    """The text of an input file, decoded as UTF-8.

    Bytes that do not decode raise InputError naming the path; a path that
    cannot be opened raises the OSError, whose filename the CLI reports.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def read_json(path) -> object:
    """The value of a JSON input file, read as UTF-8 text; JSON that is
    malformed, nested too deeply or holds an integer too long to parse
    raises InputError naming the path."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply to parse") from exc
    except ValueError as exc:
        # Python's cap on the digits of an integer it converts from text
        raise InputError(f"{path}: JSON number too long to parse") from exc


def _cut(text: str) -> str:
    return text if len(text) <= 40 else text[:37] + "..."


def describe_json(value) -> str:
    """A value as an error message quotes it: a parsed JSON value by its
    JSON type and a container's length or a scalar's text cut to 40
    characters, so that no long or deeply nested value is written out
    whole, and any other value by its Python type alone."""
    if isinstance(value, (list, dict)):
        return f"a JSON {'array' if isinstance(value, list) else 'object'} of length {len(value)}"
    if not (value is None or isinstance(value, (bool, int, float, str))):
        return f"a Python {type(value).__name__}"
    kind = "string" if isinstance(value, str) else "literal" if value is None or isinstance(value, bool) else "number"
    return f"the JSON {kind} {_cut(json.dumps(value))}"


def describe_keys(keys) -> str:
    """Unexpected object keys as an error message lists them: the first
    three in sorted order, each cut to 40 characters, then how many more
    there are."""
    names = sorted(map(str, keys))
    listed = repr([_cut(name) for name in names[:3]])
    return listed if len(names) <= 3 else f"{listed} and {len(names) - 3} more"
