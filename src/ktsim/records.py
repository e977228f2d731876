"""Records: dataclasses whose JSON object is their fields, keyed by field name.

Provenance travels as records (datasheets, info sheets, the config, the
reports), and a record's JSON form is exactly what gets communicated. Writing
that rule once means a field added to a record cannot silently drop out of
the artifacts. A ``JSONFragment`` is a value whose JSON text was written
ahead, for a column too long to hand the encoder record by record.
"""

from __future__ import annotations

from dataclasses import fields
from enum import Enum
from typing import Any


def jsonable(value: Any) -> Any:
    """JSON form of one field value."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [jsonable(item) for item in value]
    return value


class JSONFragment:
    """Text that is already compact, sorted-key JSON, which the result writer
    copies verbatim. It is no ``str``, so ``json.dumps`` raises ``TypeError``
    on it instead of writing the text as one quoted string."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class Record:
    """Mixin for a dataclass whose JSON object maps each field name to the
    ``jsonable`` form of its value."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def extend(cls, base: Record, **extra: Any):
        """A ``cls`` with the ``extra`` fields and, for every other field,
        the value ``base`` holds: a record built from the record it extends."""
        return cls(**{f.name: getattr(base, f.name) for f in fields(cls) if f.name not in extra}, **extra)
