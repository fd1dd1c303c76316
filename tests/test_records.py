"""The six record types behave as frozen value records: construction,
equality, hashing, repr, immutability and validation."""

from __future__ import annotations

import copy
import pickle
import re

import pytest

import fusscat as fc

P = fc.Params(3, 2)


def _tree():
    return fc.parse("x1*x2*(x3*x4*x5)", P)


def _report():
    return fc.enumerate_classes(fc.Params(2, 1), 3, with_traces=True)[0]


# (record, its fields by name in order, the repr it must print)
CASES = [
    (fc.Params(3, 2), {"m": 3, "k": 2}, "Params(m=3, k=2)"),
    (fc.DyckTuple((2, 0, 2, 0), 2), {"entries": (2, 0, 2, 0), "step": 2},
     "DyckTuple(entries=(2, 0, 2, 0), step=2)"),
    (fc.depth_matrix(_tree(), P),
     {"rows": ((1, 0, 1, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 1, 2))},
     "DepthMatrix(rows=((1, 0, 1, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 1, 2)))"),
    (fc.eval_recursive(_tree(), P), {"modulus": 4, "entries": (2, 1, 2, 1, 0)},
     "ExponentVector(modulus=4, entries=(2, 1, 2, 1, 0))"),
    (_report(),
     {"representative": fc.DyckTuple((2, 0), 1), "size": 2,
      "members": (fc.parse("x1*(x2*x3)", fc.Params(2, 1)),
                  fc.parse("x1*x2*x3", fc.Params(2, 1))),
      "traces": ((("left", (), 1),), ())},
     "ClassReport(representative=DyckTuple(entries=(2, 0), step=1), size=2, "
     "members=(Tree[(.(..))], Tree[((..).)]), traces=((('left', (), 1),), ()))"),
    (fc.PrefixedWord(2, (0, 2, 0)), {"first": 2, "tail": (0, 2, 0)},
     "PrefixedWord(first=2, tail=(0, 2, 0))"),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)
def test_positional_and_keyword_construction(record, fields, text):
    cls = type(record)
    assert cls(*fields.values()) == record
    assert cls(**fields) == record  # as the README's Params(m=3, k=2)
    assert {name: getattr(record, name) for name in fields} == fields


def test_class_report_traces_default_to_none():
    report = fc.ClassReport(fc.DyckTuple((1,), 1), 1, (fc.leaf(),))
    assert report.traces is None
    assert fc.enumerate_classes(fc.Params(2, 1), 3)[0].traces is None


@pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)
def test_equality_and_hash_are_those_of_the_field_tuple(record, fields, text):
    twin = type(record)(*fields.values())
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(tuple(fields.values()))
    assert len({record, twin}) == 1


def test_different_classes_never_compare_equal():
    # Same field values, different record types.
    word, vector = fc.PrefixedWord(3, (1,)), fc.ExponentVector(3, (1,))
    params = fc.Params(3, 1)
    assert word != vector and vector != word
    assert params != fc.PrefixedWord(3, 1)
    assert params.__eq__(fc.PrefixedWord(3, 1)) is NotImplemented
    assert params.__eq__((3, 1)) is NotImplemented
    assert params != (3, 1)
    assert fc.DyckTuple((2, 0), 1) != fc.DyckTuple((1, 1), 1)


@pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)
def test_repr_is_pinned(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields, text):
    for name in fields:
        with pytest.raises(AttributeError,
                           match="cannot assign to field '%s'" % name):
            setattr(record, name, None)
        with pytest.raises(AttributeError,
                           match="cannot delete field '%s'" % name):
            delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(record, fields, text):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("build, error, message", [
    (lambda: fc.Params(1, 2), fc.DomainError,
     "arity m must be an integer >= 2, got 1"),
    (lambda: fc.Params(3, 0), fc.DomainError,
     "degree k must be an integer >= 1, got 0"),
    (lambda: fc.Params(3.0, 1), fc.DomainError,
     "arity m must be an integer >= 2, got 3.0"),
    (lambda: fc.DyckTuple((2, 0), 0), fc.FormatError,
     "step must be a positive integer, got 0"),
    (lambda: fc.DyckTuple((2, -1), 1), fc.FormatError,
     "entry 2 is -1, need a non-negative integer"),
    (lambda: fc.DyckTuple((3, 0), 2), fc.FormatError,
     "entry 1 is 3, not a multiple of 2"),
    (lambda: fc.DyckTuple((0, 2), 1), fc.FormatError,
     "path dips below the axis after 1 down-steps"),
    (lambda: fc.DyckTuple((2, 2), 1), fc.FormatError,
     "path ends 2 above the axis"),
    (lambda: fc.DepthMatrix(()), fc.FormatError,
     "depth matrix needs at least one row"),
    (lambda: fc.DepthMatrix(((1,), (1, 2))), fc.FormatError,
     "depth matrix rows must be equal-length tuples of non-negative "
     "integers"),
    (lambda: fc.DepthMatrix(((),)), fc.FormatError,
     "depth matrix needs at least one column"),
    (lambda: fc.ExponentVector(0, ()), fc.FormatError,
     "modulus must be positive, got 0"),
    (lambda: fc.ExponentVector(4, (4,)), fc.FormatError,
     "entries must be residues in [0, 4)"),
])
def test_validation_errors_are_unchanged(build, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        build()
