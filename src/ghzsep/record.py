"""Frozen value records: the one base of every ghzsep record.

A record class names its stored fields once, as class annotations, in
order, and each annotation is the class its field's value must be.  A
record is built one way: from every field's value, by position and in
that order; each value is checked against its field's class, and then
the record runs its class's ``_check``.  A record is frozen, so a
different record is a new construction and cannot skip the checks.  It
equals a record of its own type whose fields are equal, and hashes by
its field values.

This module holds the package's two value rules.  The type rule: a
field's value is an instance of its annotation, else a ValueError
"<field> must be a <class>, got <class>".  Annotations are classes, not
strings, so no record module defers them with
``from __future__ import annotations``.  The count rule, for a count (of
qubits, parties, blocks, samples or drawn values): an int that is not a
bool.  ``is_count`` tests it and ``need_counts`` raises the ValueError.
This module imports nothing, so every layer can build on it.
"""


def is_count(*values) -> bool:
    """Whether every value is an int and not a bool: the count rule."""
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            return False
    return True


def need_counts(**values) -> None:
    """A ValueError naming the first value that is not a count by
    ``is_count``; a bool, though an int subclass, is not one."""
    for name, value in values.items():
        if not is_count(value):
            raise ValueError(f"need an integer {name}, got {value!r}")


class Record:
    """Base of the frozen records.  A subclass's ``fields`` names its
    stored values, and ``types`` holds each one's class."""

    def __init_subclass__(cls):
        cls.fields = tuple(cls.__annotations__)
        cls.types = tuple(cls.__annotations__.values())

    def __init__(self, *values):
        if len(values) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self.fields)}, "
                            f"got {len(values)} values")
        for name, kind, value in zip(self.fields, self.types, values):
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
        self.__dict__.update(zip(self.fields, values))
        self._check()

    def _check(self) -> None:
        """Raise ValueError if the fields do not make a valid record."""

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self.fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self.fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")
