"""The value classes of the package, pinned as records.

Every public value class is pinned here: its constructor's parameters and
defaults, its repr, ``==`` and ``!=`` against its own class, another class
and a plain tuple of its fields, its hash (the hash of that tuple for a
frozen class, none for the others), pickle and copy round trips, that an
instance holds its fields and no ``__dict__``, the refusal of assignment
and deletion on a frozen class, and every refusal text of the constructors
that validate (``Permutation``, ``CycleDecomposition`` and
``SignedPermutation``).  The hash matters beyond itself: witness texts
print sets of permutations, whose order follows it.
"""

import copy
import inspect
import pickle

import pytest

from cycledescent._records import set_field
from cycledescent.bijections import BlockSeq, SignedPermutation
from cycledescent.involutions import InvolutionOutcome
from cycledescent.matchings import MatchStats, PerfectMatching
from cycledescent.perms import CycleDecomposition, Permutation, StatRecord, statistics
from cycledescent.poly import ONE, X
from cycledescent.statpolys import IdentityReport, PolyTable
from cycledescent.verify import CheckOutcome, VerificationSummary

P = Permutation((2, 3, 1))

# class -> (fields, a value, its repr, the same fields with one changed)
RECORDS = {
    Permutation: (("word",), (P.word,), "Permutation((2, 3, 1))", ((3, 1, 2),)),
    CycleDecomposition: (
        ("cycles",),
        (((1, 2), (3,)),),
        "CycleDecomposition(cycles=((1, 2), (3,)))",
        (((1, 3), (2,)),),
    ),
    StatRecord: (
        ("exc", "fix", "cyc", "cdes", "cdes_set", "inv1"),
        (2, 0, 1, 0, frozenset(), 3),
        "StatRecord(exc=2, fix=0, cyc=1, cdes=0, cdes_set=frozenset(), inv1=3)",
        (2, 0, 1, 1, frozenset({3}), 3),
    ),
    SignedPermutation: (
        ("perm", "neg"),
        (Permutation((2, 1)), frozenset({2})),
        "SignedPermutation(perm=Permutation((2, 1)), neg=frozenset({2}))",
        (Permutation((2, 1)), frozenset()),
    ),
    BlockSeq: (
        ("blocks",),
        (((3, 1), (2,)),),
        "BlockSeq(blocks=((3, 1), (2,)))",
        (((3,), (2, 1)),),
    ),
    InvolutionOutcome: (
        ("image", "case_tag", "delta_cdes"),
        (P, "fixed", 0),
        "InvolutionOutcome(image=Permutation((2, 3, 1)), case_tag='fixed', delta_cdes=0)",
        (P, "psi-case1", -1),
    ),
    PerfectMatching: (
        ("support", "partner"),
        ((1,), (0, 0, 3, 2)),
        "PerfectMatching(support=(1,), partner=(0, 0, 3, 2))",
        ((2,), (0, 0, 3, 2)),
    ),
    MatchStats: (
        ("arc", "up", "down", "ver", "com"),
        (1, 2, 3, 4, 5),
        "MatchStats(arc=1, up=2, down=3, ver=4, com=5)",
        (1, 2, 3, 4, 6),
    ),
    PolyTable: (
        ("n", "entries"),
        (1, {1: X}),
        "PolyTable(n=1, entries={1: MultiPoly<x>})",
        (1, {1: ONE}),
    ),
    IdentityReport: (
        ("identity_id", "n", "passed", "lhs", "rhs", "witness"),
        ("b1", 2, True, ONE, X, None),
        "IdentityReport(identity_id='b1', n=2, passed=True, lhs=MultiPoly<1>,"
        " rhs=MultiPoly<x>, witness=None)",
        ("b1", 2, False, ONE, X, "n=2"),
    ),
    CheckOutcome: (
        ("check_id", "n", "detail"),
        ("c", 3, "d"),
        "CheckOutcome(check_id='c', n=3, detail='d')",
        ("c", 4, "d"),
    ),
    VerificationSummary: (
        ("suite", "n_lo", "n_hi", "checks_run", "failures", "notes"),
        ("all", 1, 2, 3, [CheckOutcome("c", 3, "d")], []),
        "VerificationSummary(suite='all', n_lo=1, n_hi=2, checks_run=3,"
        " failures=[CheckOutcome(check_id='c', n=3, detail='d')], notes=[])",
        ("all", 1, 2, 3, [], []),
    ),
}
FROZEN = {
    Permutation,
    CycleDecomposition,
    StatRecord,
    SignedPermutation,
    BlockSeq,
    InvolutionOutcome,
    PerfectMatching,
    MatchStats,
}
# defaults of the constructors, as (field, value, value is a fresh list)
DEFAULTS = {
    IdentityReport: [("witness", None, False)],
    VerificationSummary: [("failures", [], True), ("notes", [], True)],
}
CLASSES = list(RECORDS)


def build(cls, values):
    return cls(*values)


def fields_of(record):
    return tuple(getattr(record, f) for f in RECORDS[type(record)][0])


@pytest.fixture(params=CLASSES, ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_constructor_parameters(cls):
    names = RECORDS[cls][0]
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(names)
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    required = len(names) - len(DEFAULTS.get(cls, []))
    assert all(p.default is inspect.Parameter.empty for p in params[:required])


def test_defaults(cls):
    names, values, *_ = RECORDS[cls]
    defaults = DEFAULTS.get(cls, [])
    required = len(names) - len(defaults)
    a, b = build(cls, values[:required]), build(cls, values[:required])
    for name, value, fresh in defaults:
        assert getattr(a, name) == value
        if fresh:
            assert getattr(a, name) is not getattr(b, name)


def test_keywords_and_positions_build_the_same_record(cls):
    names, values, *_ = RECORDS[cls]
    record = cls(**dict(zip(names, values)))
    assert fields_of(record) == tuple(values)
    assert record == build(cls, values)


def test_repr(cls):
    _, values, text, _ = RECORDS[cls]
    assert repr(build(cls, values)) == text


def test_equality(cls):
    _, values, _, changed = RECORDS[cls]
    record = build(cls, values)
    assert record == build(cls, values)
    assert not record != build(cls, values)
    assert record != build(cls, changed)
    assert not record == build(cls, changed)
    other_cls = CLASSES[(CLASSES.index(cls) + 1) % len(CLASSES)]
    other = build(other_cls, RECORDS[other_cls][1])
    assert record != other and other != record
    plain = tuple(values)
    assert record != plain and plain != record
    assert not record == plain


def test_hash(cls):
    _, values, *_ = RECORDS[cls]
    record = build(cls, values)
    if cls in FROZEN:
        assert hash(record) == hash(tuple(values))
        assert hash(record) == hash(build(cls, values))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@pytest.mark.parametrize("protocol", range(0, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(cls, protocol):
    _, values, text, _ = RECORDS[cls]
    back = pickle.loads(pickle.dumps(build(cls, values), protocol))
    assert type(back) is cls
    assert back == build(cls, values)
    assert repr(back) == text


@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copy_round_trip(cls, how):
    _, values, text, _ = RECORDS[cls]
    record = build(cls, values)
    back = how(record)
    assert type(back) is cls
    assert back == record
    assert repr(back) == text


def test_deepcopy_copies_mutable_fields():
    summary = build(VerificationSummary, RECORDS[VerificationSummary][1])
    back = copy.deepcopy(summary)
    assert back.failures == summary.failures
    assert back.failures is not summary.failures


def test_frozen_records_refuse_assignment_and_deletion(cls):
    names, values, *_ = RECORDS[cls]
    record = build(cls, values)
    if cls not in FROZEN:
        setattr(record, names[0], values[0])
        assert fields_of(record) == tuple(values)
        return
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert fields_of(record) == tuple(values)


def test_every_record_holds_only_its_fields(cls):
    record = build(cls, RECORDS[cls][1])
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        set_field(record, "other", None)


def test_the_permutation_cache_takes_no_part():
    # a permutation and a matching keep no derived value: reading one
    # leaves them equal to a fresh copy in every way, and nothing can be
    # stored on them beside their fields
    p, fresh = Permutation((2, 3, 1)), Permutation((2, 3, 1))
    m = PerfectMatching((1, 2), (0, 0, 4, 5, 2, 3))
    m_fresh = PerfectMatching((1, 2), (0, 0, 4, 5, 2, 3))
    assert statistics(p).exc == 2 and len(m.edges) == 2
    for value, same in ((p, fresh), (m, m_fresh)):
        assert not hasattr(value, "__dict__")
        for store in (setattr, set_field):
            with pytest.raises(AttributeError):
                store(value, "_stats", None)
        assert value == same and hash(value) == hash(same) and repr(value) == repr(same)
        assert pickle.dumps(value) == pickle.dumps(same)
        for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert not hasattr(back, "__dict__")
            assert back == value
    assert statistics(copy.copy(p)) == statistics(p)
    assert copy.deepcopy(m).edges == m.edges


def test_trusted_wrappers_build_equal_records():
    assert Permutation._trusted((2, 3, 1)) == P
    assert hash(Permutation._trusted((2, 3, 1))) == hash(P)
    cycles = ((1, 2), (3,))
    assert CycleDecomposition._trusted(cycles) == CycleDecomposition(cycles)
    signed = SignedPermutation(Permutation((2, 1)), {2})
    assert SignedPermutation._trusted(Permutation((2, 1)), frozenset({2})) == signed


def test_constructors_normalise_their_fields():
    assert Permutation([2, 1]).word == (2, 1)
    assert CycleDecomposition([[1, 2], [3]]).cycles == ((1, 2), (3,))
    assert SignedPermutation(Permutation((2, 1)), [2]).neg == frozenset({2})


@pytest.mark.parametrize(
    "word, text",
    [
        ((1, 1), "not a permutation of 1..2: (1, 1)"),
        ((0, 1), "not a permutation of 1..2: (0, 1)"),
        ((2, 3), "not a permutation of 1..2: (2, 3)"),
        ((1.0, 2), "not a permutation of 1..2: (1.0, 2)"),
        ((True, 2), "not a permutation of 1..2: (True, 2)"),
        (("1",), "not a permutation of 1..1: ('1',)"),
        ([2, None], "not a permutation of 1..2: (2, None)"),
    ],
)
def test_permutation_refusals(word, text):
    with pytest.raises(ValueError) as err:
        Permutation(word)
    assert str(err.value) == text


@pytest.mark.parametrize(
    "cycles, text",
    [
        (((1,), ()), "empty cycle"),
        (((2, 1),), "cycle not smallest-first: (2, 1)"),
        (((2,), (1,)), "cycle minima not strictly increasing"),
        (((1,), (1,)), "cycle minima not strictly increasing"),
        (((0,),), "cycle minima not strictly increasing"),
        (((1, 0),), "cycle not smallest-first: (1, 0)"),
        (((1, 5, 0),), "cycle not smallest-first: (1, 5, 0)"),
        (((-1, 2),), "cycle minima not strictly increasing"),
        (((0.5, 2),), "cycle element out of range: 0.5"),
        (((1, 2), (3, 2)), "cycle not smallest-first: (3, 2)"),
        (((1, 3), (2, 3)), "element repeated across cycles: 3"),
        (((1, "a"),), "cycle elements must be integers: ((1, 'a'),)"),
        (((1, None),), "cycle elements must be integers: ((1, None),)"),
        ([[1], 5], "cycle elements must be integers: [[1], 5]"),
        (7, "cycle elements must be integers: 7"),
        (((1, 2.0),), "cycle elements must be integers: ((1, 2.0),)"),
        (((True, 2),), "cycle elements must be integers: ((True, 2),)"),
    ],
)
def test_cycle_decomposition_refusals(cycles, text):
    with pytest.raises(ValueError) as err:
        CycleDecomposition(cycles)
    assert str(err.value) == text


@pytest.mark.parametrize(
    "neg, text",
    [
        ({3}, "negative values outside 1..2: {3}"),
        ({0}, "negative values outside 1..2: {0}"),
        ({1.5}, "negative values outside 1..2: {1.5}"),
        ({"a"}, "negative values outside 1..2: {'a'}"),
        ({True}, "negative values must be integers: {True}"),
        ({2.0}, "negative values must be integers: {2.0}"),
    ],
)
def test_signed_permutation_refusals(neg, text):
    with pytest.raises(ValueError) as err:
        SignedPermutation(Permutation((2, 1)), neg)
    assert str(err.value) == text
