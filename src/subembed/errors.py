"""Exception hierarchy shared across the package, the naming of an input
file in its errors, the one reader of input files and the decoders that map
a failed read, bad UTF-8 or bad JSON onto it, short quotes of values and
keys, the integer check of arguments, and the immutable records' base class."""

import contextlib
import inspect
import json
import numbers


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


@contextlib.contextmanager
def naming(path):
    """Re-raises a SubembedError from inside as its own class, "<path>: " in front."""
    try:
        yield
    except SubembedError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def decode_text(data: bytes) -> str:
    """An input file's bytes as its text: strict UTF-8, each \\r\\n or lone
    \\r read as \\n, as open() reads text. Bytes that do not decode raise
    InputError."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_bytes(path) -> bytes:
    """An input file's bytes, from the package's one open() of an input file;
    a failed open or read raises InputError with the reason alone."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise InputError(getattr(exc, "strerror", None) or str(exc)) from exc


def read_text(path) -> str:
    """The text of an input file, by ``read_bytes`` and ``decode_text``."""
    return decode_text(read_bytes(path))


def parse_json(text: str) -> object:
    """The value of an input file's JSON text; JSON that is malformed,
    nested too deeply or holds an integer too long to parse raises
    InputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError("JSON nested too deeply to parse") from exc
    except ValueError as exc:
        # Python's cap on the digits of an integer it converts from text
        raise InputError("JSON number too long to parse") from exc


def _cut(text: str) -> str:
    return text if len(text) <= 40 else text[:37] + "..."


def describe_value(value) -> str:
    """A value as an error message quotes it, for a file's reader and a
    library caller alike: a list or dict as an array or object and its
    length, a scalar by its JSON text cut to 40 characters, so that no long
    or nested value is written out whole, and any other by its Python type."""
    if isinstance(value, (list, dict)):
        return f"{'an array' if isinstance(value, list) else 'an object'} of length {len(value)}"
    if not (value is None or isinstance(value, (bool, int, float, str))):
        return f"a Python {type(value).__name__}"
    kind = "string" if isinstance(value, str) else "literal" if value is None or isinstance(value, bool) else "number"
    return f"the {kind} {_cut(json.dumps(value))}"


def _integer(value, message: str) -> int:
    """value as a Python int; InputError, quoting it after message, unless it
    is an integer. int() would take a float or a bool silently: 2.9 as 2,
    True as 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{message}, got {describe_value(value)}")
    return int(value)


def describe_keys(keys) -> str:
    """Unexpected object keys as an error message lists them: the first
    three in sorted order, each cut to 40 characters, then how many more
    there are."""
    names = sorted(map(str, keys))
    listed = repr([_cut(name) for name in names[:3]])
    return listed if len(names) <= 3 else f"{listed} and {len(names) - 3} more"


class Record:
    """Base class of the package's immutable records.

    A subclass declares its fields as class annotations, in order, after
    those of a Record base, and a default as the annotated name's class
    value. It gets an ``__init__`` that takes the fields by position or
    keyword and then calls ``__post_init__``, which it may override to check
    or normalize them (through ``object.__setattr__``); a
    ``Name(field=value, ...)`` repr; equality and hashing by class and field
    values; and no assignment or deletion of attributes. A subclass may
    define its own ``__init__`` instead. No code is generated per class:
    every record type shares these methods.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the names the class itself annotates, in order, after its bases' fields
        own = [name for name in inspect.get_annotations(cls) if name not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{name: vars(cls)[name] for name in own if name in vars(cls)}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values, in order, of a call given these arguments."""
        rest = cls._fields[len(args):]
        named = {**cls._defaults, **kwargs}
        if len(args) > len(cls._fields) or not set(rest) <= set(named) or not set(kwargs) <= set(rest):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(cls._fields)}: "
                            f"got {len(args)} by position and {sorted(kwargs)} by keyword")
        return [*args, *(named[name] for name in rest)]

    def __post_init__(self):
        """Checks or normalizes the fields; a record type may override it."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
