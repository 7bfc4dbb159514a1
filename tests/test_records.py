"""The package's value classes: construction, equality, hash, assignment and
repr, pinned to what they were as generated record classes."""
import copy
import inspect
import pickle
from array import array

import pytest

from conftest import chain_ab_poset
from stonetrim import (Analytics, BuildConfig, Classification,
                       ClosureElement, CompletionElement, Extremal,
                       FoundationResult, IsoRun, MismatchWitness, PathPrefix,
                       PointError, PointLabel, RNTrace, StructureReport,
                       SymbolicSpace, TypeSet, Verdict,
                       build_levels, family)
from stonetrim.backforth import Pair
from stonetrim.skeleton import Level

POSET = chain_ab_poset()
TREE = build_levels(BuildConfig(POSET), 3)
SPACE = SymbolicSpace(family("rn-infinity"), 12)
OTHER_SPACE = SymbolicSpace(family("rn-infinity"), 12)
P0 = ClosureElement(SPACE, 1 << SPACE.poset.index("p0"))

REQUIRED, FACTORY = object(), object()


class Case:
    """One class: a full set of field values in order, how many lead
    positionally without a default, the defaults of the rest, whether it
    is frozen and hashable, fields equality ignores (with a second value),
    one compared field to change, and the repr where it is pinned."""

    def __init__(self, cls, fields, required, defaults, *, frozen,
                 hashable=None, ignored=None, differs, shown=None):
        self.cls, self.fields, self.required = cls, fields, required
        self.defaults, self.frozen = defaults, frozen
        self.hashable = frozen if hashable is None else hashable
        self.ignored, self.differs, self.shown = ignored or {}, differs, shown

    def make(self, **changes):
        return self.cls(**{**self.fields, **changes})


CASES = [
    Case(Verdict, {"status": "refuted", "witness": ("a", "b"), "note": "n"},
         1, {"witness": (), "note": ""}, frozen=True,
         differs=("note", "m"), shown=(
             {"status": "holds", "witness": (), "note": ""},
             "Verdict(status='holds', witness=(), note='')")),
    Case(Extremal, {"minimal": 0b10, "maximal": 0b100, "exact": True,
                    "note": "n"},
         3, {"note": ""}, frozen=True, differs=("exact", False), shown=(
             {}, "Extremal(minimal=2, maximal=4, exact=True, note='n')")),
    Case(FoundationResult, {"status": "found", "foundation": 0b10,
                            "note": "n"},
         1, {"foundation": 0, "note": ""}, frozen=True,
         differs=("status", "refuted"), shown=(
             {}, "FoundationResult(status='found', foundation=2, "
                 "note='n')")),
    Case(Analytics, {"minimal": None, "maximal": None, "acc": True,
                     "acc_note": "x", "omega_complete": False,
                     "omega_note": "y", "omega_witness": None,
                     "foundation": None, "limit_display": None},
         0, {"minimal": None, "maximal": None, "acc": None, "acc_note": "",
             "omega_complete": None, "omega_note": "", "omega_witness": None,
             "foundation": None, "limit_display": None},
         frozen=False, differs=("acc", False), shown=(
             {"acc_note": "", "omega_complete": None, "omega_note": ""},
             "Analytics(minimal=None, maximal=None, acc=True, acc_note='', "
             "omega_complete=None, omega_note='', omega_witness=None, "
             "foundation=None, limit_display=None)")),
    Case(BuildConfig, {"poset": POSET, "isolated": frozenset({"a"}),
                       "bounded": frozenset({"a"}), "unbounded": frozenset(),
                       "noncompact": frozenset({"b"}), "horizon": 4},
         1, {"isolated": frozenset(), "bounded": frozenset(),
             "unbounded": frozenset(), "noncompact": frozenset(),
             "horizon": None},
         frozen=True, differs=("horizon", 5)),
    Case(Level, {"types": array("I", [1, 1, 2]),
                 "bounds": array("I", [0, 3])},
         1, {"bounds": array("I")}, frozen=False,
         ignored={"counts": {1: 3}}, differs=("bounds", array("I", [0, 2])),
         shown=({"types": array("I", [1]), "bounds": array("I")},
                "Level(types=array('I', [1]), bounds=array('I'))")),
    Case(StructureReport, {"checks": [("x", True, "")]},
         0, {"checks": []}, frozen=False, differs=("checks", []), shown=(
             {"checks": []}, "StructureReport(checks=[])")),
    Case(TypeSet, {"poset": POSET, "min_antichain": ("a",)},
         2, {}, frozen=True, differs=("min_antichain", ("b",)), shown=(
             {"min_antichain": ()}, "TypeSet(∅)")),
    Case(CompletionElement, {"kind": "base", "ref": "a",
                             "descriptor": 0b10, "display": "x"},
         3, {"display": ""}, frozen=True, differs=("kind", "limit"), shown=(
             {"display": ""}, "CompletionElement(kind='base', ref='a', "
                              "descriptor=2, display='')")),
    Case(PathPrefix, {"tree": TREE, "nodes": ((1, 0), (2, 0))},
         2, {}, frozen=True, differs=("nodes", ((1, 0),))),
    Case(PointLabel, {"kind": "clean", "value": "a", "detail": "d"},
         1, {"value": "", "detail": ""}, frozen=True,
         differs=("value", "b"), shown=(
             {"detail": ""},
             "PointLabel(kind='clean', value='a', detail='')")),
    Case(MismatchWitness, {"side": "left", "type_id": "a", "needed": 2,
                           "available": 1, "reason": "short"},
         5, {}, frozen=True, differs=("side", "right"), shown=(
             {}, "MismatchWitness(side='left', type_id='a', needed=2, "
                 "available=1, reason='short')")),
    Case(Pair, {"parts": (1, 2), "gens": ("a", "b")},
         2, {}, frozen=False, differs=("gens", ("a", "a")), shown=(
             {}, "Pair(parts=(1, 2), gens=('a', 'b'))")),
    Case(IsoRun, {"status": "iso", "pairs": 3, "depth_used": 7,
                  "witness": None, "note": "n", "coverage": True,
                  "invariant_failures": ["x"], "transcript": [{}]},
         1, {"pairs": 0, "depth_used": 0, "witness": None, "note": "",
             "coverage": False, "invariant_failures": [], "transcript": []},
         frozen=False, differs=("pairs", 4), shown=(
             {"depth_used": 0, "note": "", "coverage": False,
              "invariant_failures": [], "transcript": []},
             "IsoRun(status='iso', pairs=3, depth_used=0, witness=None, "
             "note='', coverage=False, invariant_failures=[], "
             "transcript=[])")),
    Case(ClosureElement, {"space": SPACE, "signed": 0b10},
         2, {}, frozen=True, ignored={"space": OTHER_SPACE},
         differs=("signed", ~0b10)),
    Case(RNTrace, {"space": SPACE, "u": [P0], "v": [P0], "b": [P0],
                   "a_inf": P0, "a_inf_exact": True, "note": "n"},
         1, {"u": [], "v": [], "b": [], "a_inf": None, "a_inf_exact": False,
             "note": ""},
         frozen=False, differs=("b", [])),
    Case(Classification, {"case": 1, "name": "x", "witness": {"0": "p0"},
                          "note": "n"},
         3, {"note": ""}, frozen=True, hashable=False,
         differs=("case", 2), shown=(
             {"note": ""}, "Classification(case=1, name='x', "
                           "witness={'0': 'p0'}, note='')")),
]
IDS = [case.cls.__name__ for case in CASES]

# each constructor's parameters at the last commit that generated them:
# (name, default), REQUIRED for none and FACTORY for a fresh value per call;
# ClosureElement's third field has since become an index mask, in place of
# a frozenset of ids, and so have Extremal's minimal and maximal and
# FoundationResult's foundation, which defaults to the empty mask 0 in place
# of None; ClosureElement's cofinite flag and mask have since become one
# signed mask, signed; TypeSet has lost its mask parameter and RNTrace its n_ran, N and
# stabilized, which are read off the fields that remain, and its a, which
# u[0] and b[0] hold; Level has lost its number, and its u_start and
# block ends have become one column of posts, bounds, whose last post is
# u_start (declared in CHANGES.md)
SIGNATURES = {
    "Verdict": [("status", REQUIRED), ("witness", ()), ("note", "")],
    "Extremal": [("minimal", REQUIRED), ("maximal", REQUIRED),
                 ("exact", REQUIRED), ("note", "")],
    "FoundationResult": [("status", REQUIRED), ("foundation", 0),
                         ("note", "")],
    "Analytics": [("minimal", None), ("maximal", None), ("acc", None),
                  ("acc_note", ""), ("omega_complete", None),
                  ("omega_note", ""), ("omega_witness", None),
                  ("foundation", None), ("limit_display", None)],
    "BuildConfig": [("poset", REQUIRED), ("isolated", frozenset()),
                    ("bounded", frozenset()), ("unbounded", frozenset()),
                    ("noncompact", frozenset()), ("horizon", None)],
    "Level": [("types", REQUIRED), ("bounds", FACTORY), ("counts", FACTORY)],
    "StructureReport": [("checks", FACTORY)],
    "TypeSet": [("poset", REQUIRED), ("min_antichain", REQUIRED)],
    "CompletionElement": [("kind", REQUIRED), ("ref", REQUIRED),
                          ("descriptor", REQUIRED), ("display", "")],
    "PathPrefix": [("tree", REQUIRED), ("nodes", REQUIRED)],
    "PointLabel": [("kind", REQUIRED), ("value", ""), ("detail", "")],
    "MismatchWitness": [("side", REQUIRED), ("type_id", REQUIRED),
                        ("needed", REQUIRED), ("available", REQUIRED),
                        ("reason", REQUIRED)],
    "Pair": [("parts", REQUIRED), ("gens", REQUIRED)],
    "IsoRun": [("status", REQUIRED), ("pairs", 0), ("depth_used", 0),
               ("witness", None), ("note", ""), ("coverage", False),
               ("invariant_failures", FACTORY), ("transcript", FACTORY)],
    "ClosureElement": [("space", REQUIRED), ("signed", REQUIRED)],
    "RNTrace": [("space", REQUIRED), ("u", FACTORY), ("v", FACTORY),
                ("b", FACTORY), ("a_inf", None), ("a_inf_exact", False),
                ("note", "")],
    "Classification": [("case", REQUIRED), ("name", REQUIRED),
                       ("witness", REQUIRED), ("note", "")],
}


def test_every_class_has_a_case():
    assert sorted(IDS) == sorted(SIGNATURES) and len(IDS) == 17


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_signature_keeps_order_and_defaults(case):
    params = list(inspect.signature(case.cls).parameters.values())
    want = SIGNATURES[case.cls.__name__]
    # a parameter may be added after the old ones, never before them
    assert [p.name for p in params[:len(want)]] == [n for n, _ in want]
    for p, (name, default) in zip(params, want):
        assert p.kind is p.POSITIONAL_OR_KEYWORD, name
        if default is REQUIRED:
            assert p.default is p.empty, name
        elif default is not FACTORY:
            assert p.default == default, name
    assert all(p.default is not p.empty for p in params[len(want):])


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(case):
    by_name = case.make()
    by_position = case.cls(*case.fields.values())
    assert by_name == by_position
    for name, value in case.fields.items():
        assert getattr(by_name, name) == value, name


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_defaults(case):
    names = list(case.fields)
    leading = [case.fields[n] for n in names[:case.required]]
    obj = case.cls(*leading)
    assert set(case.defaults) == set(names[case.required:])
    for name, value in case.defaults.items():
        assert getattr(obj, name) == value, name
    # a mutable default is a fresh value for every instance
    other = case.cls(*leading)
    for name, value in case.defaults.items():
        if isinstance(value, (list, dict, array)):
            assert getattr(obj, name) is not getattr(other, name), name


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_and_hash(case):
    obj, twin = case.make(), case.make()
    assert obj == twin and not obj != twin
    field, value = case.differs
    assert obj != case.make(**{field: value})
    for field, value in case.ignored.items():
        assert obj == case.make(**{field: value}), field
    # no tuple underneath: a record equals no tuple of its fields
    assert obj != tuple(case.fields.values())
    assert obj.__eq__(object()) is NotImplemented
    if case.hashable:
        assert hash(obj) == hash(twin)
        for field, value in case.ignored.items():
            assert hash(obj) == hash(case.make(**{field: value})), field
    else:
        with pytest.raises(TypeError):
            hash(obj)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_frozen_classes_reject_assignment(case):
    obj = case.make()
    for name, value in case.fields.items():
        if case.frozen:
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        else:
            setattr(obj, name, value)
        assert getattr(obj, name) == value


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_copies_are_equal(case):
    obj = case.make()
    assert copy.copy(obj) == obj
    try:
        pickle.dumps(tuple(case.fields.values()))
    except AttributeError:      # a poset's order is a local function
        return
    assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("case", [c for c in CASES if c.shown],
                         ids=[c.cls.__name__ for c in CASES if c.shown])
def test_repr(case):
    changes, text = case.shown
    assert repr(case.make(**changes)) == text


def test_post_init_behaviour():
    config = BuildConfig(POSET, isolated=["a"], bounded={"a"})
    assert config.isolated == config.bounded == frozenset({"a"})
    assert type(config.isolated) is frozenset
    config.masks(2)
    assert config == BuildConfig(POSET, isolated={"a"}, bounded={"a"})
    assert TypeSet(POSET, ("b",)).mask == 1 << POSET.index("b")
    finite = SymbolicSpace(family("rn(2,0)"), 12)
    flipped = ClosureElement(finite, ~(1 << finite.poset.index("p0")))
    assert flipped.signed >= 0
    assert flipped.signed == finite._w & ~0b10
    assert flipped.ids == {"p1", "p2"}
    with pytest.raises(PointError):
        PathPrefix(TREE, ())
    with pytest.raises(PointError):
        PathPrefix(TREE, ((1, 0), (3, 0)))


def test_level_cached_properties():
    lvl = Level(array("I", [1, 1, 2]), array("I", [0, 2]))
    assert (lvl.full_mask, lvl.u_mask) == (0b111, 0b100)
    assert lvl.counts == {1: 2, 2: 1}


def test_level_equality_ignores_its_caches():
    """Two builds of one config have equal levels, before and after one
    side fills its type and block caches."""
    left, right = (build_levels(BuildConfig(family("rn(2,0)")), 4)
                   for _ in range(2))
    assert left.level(3) == right.level(3)
    left.level(3).type_masks()
    left.level(3).block_masks()
    assert left.level(3) == right.level(3)
    assert left.levels == right.levels
