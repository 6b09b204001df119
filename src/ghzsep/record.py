"""Frozen value records: the one base of every ghzsep record.

A record class names its stored fields once, as class annotations, in
order; a field's default is the class attribute of that name.  A record
is built from its fields by position or keyword and then runs its
class's ``_check``, and ``replace`` builds a new record the same way, so
a changed record cannot skip the checks.  A record is frozen.  It equals
a record of its own type whose fields are equal, and hashes by its field
values.

This module also holds the package's one rule for a qubit, party or
block count: an int that is not a bool.  ``is_count`` tests it and
``need_counts`` raises the ValueError.  This module imports nothing, so
every layer can build on it.
"""


def is_count(*values) -> bool:
    """Whether every value is an int and not a bool: the rule for a qubit,
    party or part count."""
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
    """Base of the frozen records.  ``fields`` names the stored values."""

    fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls.fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        fields = self.fields
        if kwargs or len(args) != len(fields):
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            if len(args) > len(fields) or len(values) != len(fields) or (
                    kwargs and not set(kwargs) <= set(fields[len(args):])):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}, "
                                f"got {len(args)} positional and {sorted(kwargs)}")
            args = [values[name] for name in fields]
        self.__dict__.update(zip(fields, args))
        self._check()

    def _check(self) -> None:
        """Raise ValueError if the fields do not make a valid record."""

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked like a new record."""
        return type(self)(**{**dict(zip(self.fields, self._values())), **changes})

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
