"""Frozen value records: the one base of every ghzsep record.

A record class names its stored fields once, as class annotations, in
order.  A record is built one way: from every field's value, by position
and in that order; then it runs its class's ``_check``.  A record is
frozen, so a different record is a new construction and cannot skip the
checks.  It equals a record of its own type whose fields are equal, and
hashes by its field values.

This module also holds the package's one rule for a count (of qubits,
parties, blocks, samples or drawn values): an int that is not
a bool.  ``is_count`` tests it and ``need_counts`` raises the ValueError.
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
    stored values."""

    def __init_subclass__(cls):
        cls.fields = tuple(cls.__annotations__)

    def __init__(self, *values):
        if len(values) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self.fields)}, "
                            f"got {len(values)} values")
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
