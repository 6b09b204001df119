import importlib
import inspect
import pkgutil
import typing
from fractions import Fraction

import pytest

import ghzsep
from ghzsep.exactmath import (CheckRecord, random_unit_rationals, verify_appendix_inequality,
                              verify_lemma1_inequality, verify_w_identities, w_coeff)
from ghzsep.lpsolve import LpProblem, build_problem
from ghzsep.oracle import (attained_product_value, characteristic_check,
                           max_sampled_product_value)
from ghzsep.partitions import PartitionType
from ghzsep.record import Record
from ghzsep.symstate import SymState, noisy_ghz
from ghzsep.witness import canonical_witness, gamma_diagonal, sep_max


class Pair(Record):
    """A test record: two fields and a check."""

    a: int
    b: int

    def _check(self):
        if self.a < self.b:
            raise ValueError("need a >= b")


class Twin(Record):
    a: int
    b: int


class TestFields:
    def test_named_once_in_order(self):
        assert Pair.fields == ("a", "b")
        assert CheckRecord.fields == ("check", "params", "passed", "detail")

    @pytest.mark.parametrize("record, args, kwargs, message", [
        (Pair, (), {}, "Pair takes the fields a, b, got 0 values"),
        (Pair, (1, 0, 2), {}, "Pair takes the fields a, b, got 3 values"),
        (Pair, (1,), {}, "Pair takes the fields a, b, got 1 values"),
        (Pair, (1,), {"a": 1}, "unexpected keyword argument 'a'"),
        (Pair, (1,), {"c": 2}, "unexpected keyword argument 'c'"),
        (Pair, (), {"a": 1, "b": 0}, "unexpected keyword argument 'a'"),
        (CheckRecord, ("c", {}, True), {},
         "CheckRecord takes the fields check, params, passed, detail, got 3 values"),
    ], ids=["none", "too-many", "missing", "twice", "unknown", "keywords", "no-default"])
    def test_bad_fields_are_a_type_error(self, record, args, kwargs, message):
        # a record is built from every field, by position: no keyword, no default
        with pytest.raises(TypeError, match=message):
            record(*args, **kwargs)


class TestChecks:
    def test_construction_runs_the_check(self):
        with pytest.raises(ValueError, match="need a >= b"):
            Pair(1, 2)
        with pytest.raises(ValueError, match="sorted non-increasing"):
            PartitionType((2, 3))

    def test_frozen(self):
        p = Pair(3, 1)
        with pytest.raises(AttributeError, match="Pair is frozen"):
            p.a = 0
        with pytest.raises(AttributeError, match="Pair is frozen"):
            del p.b
        assert (p.a, p.b) == (3, 1)


def _records() -> list:
    """Every Record subclass that a ``ghzsep`` module defines.  ``__main__``
    is left out: importing it runs the CLI."""
    found = []
    for info in pkgutil.iter_modules(ghzsep.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"ghzsep.{info.name}")
        found += [obj for obj in vars(module).values()
                  if inspect.isclass(obj) and issubclass(obj, Record) and obj is not Record
                  and obj.__module__ == module.__name__]
    return found


_RECORDS = _records()
_FIELDS = [(record, name) for record in _RECORDS for name in record.fields]


class TestTypeRule:
    def test_the_walk_finds_every_record(self):
        assert {record.__name__ for record in _RECORDS} == {
            "CheckRecord", "SweepReport", "Lemma1Check", "LpProblem", "LpSolution",
            "PartitionType", "SymState", "PadResult", "WitnessSpec", "MMatrixParams"}

    @pytest.mark.parametrize("record, name", _FIELDS,
                             ids=[f"{record.__name__}.{name}" for record, name in _FIELDS])
    def test_a_wrong_type_is_one_value_error_naming_the_field(self, record, name):
        # the fields before ``name`` hold bare instances of their classes
        # and the rest None, so ``name`` is the first field of a wrong type
        hints = typing.get_type_hints(record)
        before = record.fields[:record.fields.index(name)]
        values = [hints[field].__new__(hints[field]) for field in before]
        values += [None] * (len(record.fields) - len(before))
        with pytest.raises(ValueError,
                           match=f"^{name} must be a {hints[name].__name__}, got NoneType$"):
            record(*values)

    def test_the_type_rule_runs_before_the_check(self):
        # Pair's check would compare "1" with 2, a TypeError
        with pytest.raises(ValueError, match="^a must be a int, got str$"):
            Pair("1", 2)

    def test_a_bool_field_takes_no_int(self):
        with pytest.raises(ValueError, match="^passed must be a bool, got int$"):
            CheckRecord("c", {}, 1, "")


class TestValue:
    def test_equal_and_hash_by_fields(self):
        assert Pair(3, 1) == Pair(3, 1) and Pair(3, 1) != Pair(3, 2)
        assert hash(Pair(3, 1)) == hash(Pair(3, 1))
        assert len({Pair(3, 1), Pair(3, 1), Pair(3, 0)}) == 2

    def test_equal_only_within_one_type(self):
        assert Pair(3, 1) != Twin(3, 1)

    def test_repr_names_the_fields(self):
        assert repr(Pair(3, 1)) == "Pair(a=3, b=1)"
        assert repr(SymState(Fraction(1, 2), (0, 1))) == (
            "SymState(alpha=Fraction(1, 2), d=(0, 1))")

    def test_derived_columns_are_not_compared(self):
        prob = build_problem(7, 3)
        assert prob.columns and prob == LpProblem(prob.partitions)
        assert repr(prob).startswith("LpProblem(partitions=(")
        assert "columns" not in repr(prob)


#: Calls whose count is no int, and the value each error names.  Each
#: ended in a TypeError, returned float fields or read True as 1.  A count
#: is checked before any draw, so None stands in for the generator.
_NOT_COUNTS = [
    (noisy_ghz, (3.5, 0.5), "n, got 3.5"),
    (noisy_ghz, (3.0, 0.5), "n, got 3.0"),
    (noisy_ghz, (True, 0.5), "n, got True"),
    (canonical_witness, (5.5, 2), "n, got 5.5"),
    (sep_max, (5.0, 2), "n, got 5.0"),
    (gamma_diagonal, (4.0, 2, (0, 0)), "n, got 4.0"),
    (w_coeff, (4.0, 2, 1), "L, got 4.0"),
    (verify_w_identities, (4.0,), "L, got 4.0"),
    (verify_appendix_inequality, (6.0, 2), "n_max, got 6.0"),
    (characteristic_check, (3.0, 0), "n, got 3.0"),
    (verify_lemma1_inequality, ((0,), 3.0), "n, got 3.0"),
    (verify_lemma1_inequality, ((0,), None), "n, got None"),
    (attained_product_value, (3, 2.5), "L, got 2.5"),
    (attained_product_value, (True, 2), "n, got True"),
    (max_sampled_product_value, (3, 2, 2.5), "samples, got 2.5"),
    (max_sampled_product_value, (3, 2, True), "samples, got True"),
    (random_unit_rationals, (None, 2.5), "length, got 2.5"),
    (random_unit_rationals, (None, True), "length, got True"),
]


class TestCountRule:
    @pytest.mark.parametrize("fn, args, named", _NOT_COUNTS,
                             ids=[f"{fn.__name__}{args}" for fn, args, _ in _NOT_COUNTS])
    def test_library_counts_that_are_not_ints(self, fn, args, named):
        with pytest.raises(ValueError, match=f"^need an integer {named}$"):
            fn(*args)
