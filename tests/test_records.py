"""The package's records are plain slotted classes (`quantales.records`).

Each keeps what it had as a generated record where the package reads it:
equality only between instances of one class, field by field, and the
hash of the tuple of its fields for the records something hashes; a
frozen record refuses assignment; `Word.__post_init__` runs once per
word; a record's own `__repr__` and `__str__` stay its own.
"""

from fractions import Fraction

import pytest

from quantales import examples, freeprod, nucleus, openness, quantale, \
    subspaces, suplattice, tensor
from quantales.examples import (FiniteGroupoidData, cyclic_group,
                                omega_quantale, point_topology)
from quantales.freeprod import (AdjunctionReport, FamilyResult, Instance,
                                PullbackContext, RelationCompatibilityReport,
                                RewriteStep, RewriteTrace, Word, all_words)
from quantales.nucleus import Nucleus, QuotientQuantale, RelationPresentation
from quantales.openness import Check, FrobeniusReport, LocaleMeetReport
from quantales.quantale import QuantaleMap, Violation, identity_map
from quantales.records import FrozenRecord, Record
from quantales.subspaces import RationalSubspace
from quantales.suplattice import SupMap
from quantales.tensor import BiIdeal

OMEGA = omega_quantale()
WORD = Word((("y", 1), ("q", 0)))


def _frozen():
    """One instance of every frozen record."""
    check = Check("fr1", True)
    return [
        Violation("assoc", (1, 1, 0)),
        identity_map(OMEGA),
        cyclic_group(2),
        point_topology(),
        BiIdeal((2, 2), frozenset({(0, 0)})),
        WORD,
        PullbackContext(identity_map(OMEGA), identity_map(OMEGA)),
        Instance("mid_qq", "fr2", 0, WORD, WORD),
        RewriteStep("mid_qq", 0, WORD, WORD),
        RewriteTrace(WORD, WORD, (), 0),
        check,
        FrobeniusReport("id", None, check),
        LocaleMeetReport("id", True, True, True, None),
        SupMap(OMEGA.carrier, OMEGA.carrier, [0, 1]),
        RationalSubspace(2, ((Fraction(1), Fraction(0)),)),
        RelationPresentation(OMEGA, {(0, 1)}),
        Nucleus(OMEGA, (0, 1)),
        QuotientQuantale(OMEGA, (0, 1)),
    ]


def _mutable():
    return [FamilyResult("mid_qq", "fr2"),
            RelationCompatibilityReport({}),
            AdjunctionReport(4)]


def _fields(record):
    return tuple(getattr(record, name) for name in record._fields())


# the records compared or hashed, each with a second instance with equal
# fields and one with a different field
EQUAL = {
    Violation: lambda: (Violation("assoc", (1, 1, 0)),
                        Violation("assoc", (1, 1, 0), "x")),
    FiniteGroupoidData: lambda: (FiniteGroupoidData(*_fields(cyclic_group(2))),
                                 cyclic_group(3)),
    BiIdeal: lambda: (BiIdeal((2, 2), frozenset({(0, 0)})),
                      BiIdeal((2, 2), frozenset())),
    RationalSubspace: lambda: (RationalSubspace.from_vectors(2, [(2, 0)]),
                               RationalSubspace.zero(2)),
    Word: lambda: (Word([("y", 1), ("q", 0)]), Word((("y", 1),))),
}
HASHED = (FiniteGroupoidData, BiIdeal, RationalSubspace, Word)


def test_every_record_is_listed_once():
    modules = (examples, freeprod, nucleus, openness, quantale, subspaces,
               suplattice, tensor)
    records = {cls for mod in modules for cls in vars(mod).values()
               if isinstance(cls, type) and issubclass(cls, Record)
               and cls.__module__ == mod.__name__}
    listed = [type(r) for r in _frozen() + _mutable()]
    assert len(listed) == len(set(listed)) == len(records) == 21
    assert set(listed) == records
    assert {cls for cls in records if issubclass(cls, FrozenRecord)} == \
        {type(r) for r in _frozen()}


def test_only_the_compared_records_define_equality_and_hash():
    records = [type(r) for r in _frozen() + _mutable()]
    assert {cls for cls in records if "__eq__" in vars(cls)} == set(EQUAL)
    assert {cls for cls in records if vars(cls).get("__hash__")} == \
        set(HASHED)
    # Violation is compared but never hashed
    with pytest.raises(TypeError):
        hash(Violation("assoc", (1, 1, 0)))


@pytest.mark.parametrize("cls", list(EQUAL), ids=lambda c: c.__name__)
def test_equality_is_field_by_field_within_one_class(cls):
    make = EQUAL[cls]
    first, other = make()
    twin, _ = make()
    assert first is not twin and first == twin and not first != twin
    assert first != other and not first == other

    class Twin:
        __slots__ = tuple(first._fields())

        def __init__(self, *values):
            for name, value in zip(self.__slots__, values):
                setattr(self, name, value)

    # neither an instance of another class with the same fields, nor the
    # tuple of the fields, nor an instance of a subclass
    assert first != Twin(*_fields(first)) and Twin(*_fields(first)) != first
    assert first != _fields(first)
    sub = type("Sub", (cls,), {})
    assert first != sub(*_fields(first))


@pytest.mark.parametrize("cls", HASHED, ids=lambda c: c.__name__)
def test_a_hash_is_the_hash_of_the_tuple_of_fields(cls):
    for record in EQUAL[cls]():
        assert hash(record) == hash(_fields(record))


def test_records_without_equality_compare_by_identity():
    check = Check("fr1", True)
    assert check == check and check != Check("fr1", True)


@pytest.mark.parametrize("record", _frozen(), ids=lambda r: type(r).__name__)
def test_a_frozen_record_refuses_assignment(record):
    for name in record._fields():
        value = getattr(record, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", _mutable(), ids=lambda r: type(r).__name__)
def test_a_mutable_record_takes_its_fields_only(record):
    for name in record._fields():
        setattr(record, name, None)
        assert getattr(record, name) is None
    with pytest.raises(AttributeError):
        record.extra = 1


def test_mutable_defaults_are_not_shared():
    a, b = FamilyResult("mid_qq", "fr2"), FamilyResult("mid_qq", "fr2")
    assert a.failures == [] and a.failures is not b.failures
    a, b = AdjunctionReport(4), AdjunctionReport(4)
    assert a.traces is not b.traces and a.failures is not b.failures


def test_only_the_map_keeps_a_dict_for_its_cached_facts():
    p = identity_map(OMEGA)
    assert p.facts is p.facts and "facts" in vars(p)
    assert [type(r) for r in _frozen() + _mutable()
            if hasattr(r, "__dict__")] == [QuantaleMap]


def test_word_post_init_runs_once_per_word(monkeypatch):
    calls = []
    own = Word.__dict__["__post_init__"]

    def counted(self):
        calls.append(self)
        own(self)

    monkeypatch.setattr(Word, "__post_init__", counted)
    w = Word([("y", "1"), ("q", 0)])
    assert calls == [w] and w.letters == (("y", 1), ("q", 0))
    words = list(all_words(OMEGA, OMEGA, 3))
    assert calls[1:] == words and len(words) == 2 * (2 + 4 + 8)


@pytest.mark.parametrize("letters", [(), (("y", 0), ("y", 1)),
                                     (("z", 0),)])
def test_word_post_init_still_validates(letters):
    with pytest.raises(ValueError):
        Word(letters)


def test_own_repr_and_str_are_kept():
    line = RationalSubspace.from_vectors(2, [(1, -1)])
    assert repr(line) == str(line) == "span{[1,-1]}"
    assert repr(RationalSubspace.zero(2)) == "span{}"
    assert repr(RationalSubspace.from_vectors(1, [(3,)])) == "full"
    v = Violation("assoc", (1, 1, 0), "ab differs")
    assert str(v) == "assoc fails at (1, 1, 0) (ab differs)"
    assert str(Violation("assoc", (1,))) == "assoc fails at (1,)"
    assert repr(v) == \
        "Violation(law='assoc', witness=(1, 1, 0), detail='ab differs')"
    assert repr(identity_map(OMEGA)) == "QuantaleMap(id)"


def test_the_shared_repr_lists_the_fields_in_order():
    assert repr(Check("fr1", True)) == (
        "Check(name='fr1', ok=True, witness=None, witness_display=None, "
        "mode='exhaustive', evaluations=0, reduction=None)")
    assert repr(AdjunctionReport(4)) == (
        "AdjunctionReport(maxlen=4, cores=0, words_checked=0, failures=[], "
        "traces=[])")


def test_replace_changes_the_named_fields_only():
    check = Check("fr1", True, evaluations=3)
    moved = check.replace(ok=False, witness=(1,))
    assert _fields(moved) == ("fr1", False, (1,), None, "exhaustive", 3, None)
    assert _fields(check) == ("fr1", True, None, None, "exhaustive", 3, None)
    with pytest.raises(TypeError):
        check.replace(verdict=False)
    p = identity_map(OMEGA)
    q = p.replace(name="other")
    assert type(q) is QuantaleMap and q.name == "other"
    assert _fields(q)[:4] == _fields(p)[:4] and "facts" not in vars(q)


def test_with_direct_image_keeps_the_groupoid_only_for_its_own_image():
    p = examples.group_algebra_support_map(cyclic_group(2))
    assert p.with_direct_image(p.direct_image).groupoid is p.groupoid
    other = p.with_direct_image(lambda a: 0)
    assert other.groupoid is None and other.name == p.name
    assert other.inverse_image is p.inverse_image
