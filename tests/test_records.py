"""`linalg.record` against `dataclasses.dataclass(frozen=True)`.

Every record class of the package gets a dataclass twin built from the same
annotations and defaults (`oracle.dataclass_twin`).  On seeded instances the
two must agree on equality, hash, repr, construction, `__post_init__`
errors, the frozen guard and `replace`."""

import dataclasses
import importlib
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from builders import random_split_bundle, replace, square_cone_fan
import toricfilt
from oracle import dataclass_twin
from toricfilt.algebras import build_truncation
from toricfilt.bundles import CocharBundleData, GroupSpec, check_gluing, validate_bundle
from toricfilt.compatibility import global_compatibility
from toricfilt.errors import PreconditionError
from toricfilt.fans import validate_fan
from toricfilt.filtrations import validate
from toricfilt.linalg import QMatrix, Subspace, annihilator, record
from toricfilt.reduction import check_sl_reduction, check_torus_reduction
from toricfilt.sampling import (
    p1_fan,
    p2_fan,
    random_bundle,
    random_filtration_data,
)

PER_CLASS = 8


def _record_classes():
    classes = []
    for path in sorted(pathlib.Path(toricfilt.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"toricfilt.{path.stem}")
        classes += [cls for cls in vars(module).values()
                    if isinstance(cls, type) and cls.__module__ == module.__name__
                    and "_fields" in vars(cls)]
    return classes


def _seeded_outcomes():
    """Fans, filtration data, bundles and every report built from them."""
    rng = random.Random(13)
    out = []
    for fan in (p1_fan(), p2_fan(), square_cone_fan()):
        cones = [fan.maximal_cone(k) for k in range(len(fan.maximal_cones))]
        out += [fan, validate_fan(fan), *cones, *(c.quotient() for c in cones)]
        for dim in (1, 2, 3):
            data = random_filtration_data(rng, fan, dim)
            out += [data, validate(data), global_compatibility(data)]
    for fan in (p1_fan(), p2_fan()):
        for n in (1, 2):
            for bundle in (random_bundle(rng, fan, n), random_split_bundle(rng, fan, n)):
                out += [bundle, validate_bundle(bundle), check_gluing(bundle),
                        check_sl_reduction(bundle), build_truncation(bundle, 0, 2)]
                try:
                    out.append(check_torus_reduction(bundle))
                except PreconditionError:
                    pass
    return out


def _collect(obj, twins, found, seen):
    """Record instances reachable from obj through fields, tuples and dicts,
    at most PER_CLASS of each class."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if type(obj) in twins:
        if len(found.setdefault(type(obj), [])) < PER_CLASS:
            found[type(obj)].append(obj)
        children = [getattr(obj, f) for f in obj._fields]
    elif isinstance(obj, (tuple, list)):
        children = obj
    elif isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    else:
        return
    for child in children:
        _collect(child, twins, found, seen)


def _outcome(fn, *args, **kwargs):
    """repr of fn's value, or the class and message of what it raises."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


def _frozen_message(action, *args):
    with pytest.raises(AttributeError) as info:
        action(*args)
    return str(info.value)


def _assert_agrees(instances, twins):
    """Each instance against the twin built from its field values, and every
    pair of instances against the pair of twins."""
    paired = []
    for x in instances:
        cls, twin = type(x), twins[type(x)]
        values = [getattr(x, f) for f in x._fields]
        t = twin(*values)
        paired.append((x, t))
        assert repr(x) == repr(t)
        assert _outcome(hash, x) == _outcome(hash, t)
        assert x != t and t != x
        assert x.__eq__(t) is NotImplemented and x.__eq__(1) is NotImplemented
        keywords = dict(zip(x._fields, values))
        assert cls(*values) == x == cls(**keywords) and twin(**keywords) == t
        assert repr(cls(**keywords)) == repr(twin(**keywords))
        for k in range(len(values) + 1):
            assert _outcome(cls, *values[:k]) == _outcome(twin, *values[:k])
        for f in (*x._fields, "_cache"):
            assert (_frozen_message(setattr, x, f, None)
                    == _frozen_message(setattr, t, f, None))
            assert _frozen_message(delattr, x, f) == _frozen_message(delattr, t, f)
        copy = replace(x)
        assert copy == x and copy is not x
        assert vars(copy) == vars(dataclasses.replace(t))
        for y in instances:
            if type(y) is cls:
                last = {x._fields[-1]: getattr(y, x._fields[-1])}
                assert (_outcome(replace, x, **last)
                        == _outcome(dataclasses.replace, t, **last))
        assert _outcome(replace, x, no_such_field=0)[0] is TypeError
    for (x, t), (y, s) in itertools.product(paired, repeat=2):
        assert (x == y) is (t == s)
        if x == y:
            assert _outcome(hash, x) == _outcome(hash, y)


def test_records_match_dataclass_twins():
    classes = _record_classes()
    twins = {cls: dataclass_twin(cls) for cls in classes}
    found, seen = {}, set()
    _collect(_seeded_outcomes(), twins, found, seen)
    assert set(found) == set(classes) and len(classes) == 20
    # caches that `replace` must not carry over
    for s in found[Subspace]:
        annihilator(s)
    for b in found[CocharBundleData]:
        check_gluing(b)
    assert all(len(vars(s)) > len(s._fields) for s in found[Subspace])
    _assert_agrees([x for cls in classes for x in found[cls]], twins)


def test_truncation_hashes_and_equal_builds_are_equal():
    """A truncated algebra holds only tuples: it hashes, and two builds from
    equal bundle data are equal."""
    a, b = (build_truncation(random_bundle(random.Random(3), p2_fan(), 2), 1, 3)
            for _ in range(2))
    assert a == b and a is not b and hash(a) == hash(b)


def test_post_init_errors_match_dataclass_twins():
    cases = [
        (QMatrix, ((Fraction(1), Fraction(2)),), 3),
        (QMatrix, ((Fraction(1),), ()), 1),
        (QMatrix, (), 0),
        (GroupSpec, "XX", 2),
        (GroupSpec, "GL", 0),
        (GroupSpec, "SL", "2"),
        (GroupSpec, "DT", 3),
    ]
    for cls, *args in cases:
        assert _outcome(cls, *args) == _outcome(dataclass_twin(cls), *args)
    assert _outcome(QMatrix, ((Fraction(1),),), 2)[0] is ValueError


def test_nested_record_matches_its_dataclass_twin():
    """A class defined in a function: its qualified name, not its name,
    starts the repr; a default and a `__post_init__` check come along.  A
    one-field record hashes and compares its one-element field tuple."""

    @record
    class Interval:
        lo: int
        hi: int = 0

        def __post_init__(self):
            if self.hi < self.lo:
                raise ValueError("empty interval")

    twin = dataclass_twin(Interval)
    for args in [(), (-1,), (1,), (1, 2), (3, 2), (0, 0, 0)]:
        assert _outcome(Interval, *args) == _outcome(twin, *args)
    assert repr(Interval(-1)).startswith(
        "test_nested_record_matches_its_dataclass_twin.<locals>.Interval(")
    assert Interval.hi == 0
    _assert_agrees([Interval(-1), Interval(0, 5), Interval(0, 5), Interval(-2)],
                   {Interval: twin})

    @record
    class Point:
        x: tuple

    twin = dataclass_twin(Point)
    for args in [(), ((1,),), ((1,), 2)]:
        assert _outcome(Point, *args) == _outcome(twin, *args)
    assert hash(Point((1, 2))) == hash(((1, 2),)) != hash((1, 2))
    _assert_agrees([Point((1, 2)), Point((1, 2)), Point(()), Point(([],))], {Point: twin})


def test_record_rejects_a_required_field_after_a_default():
    with pytest.raises(TypeError):
        @record
        class Bad:
            a: int = 0
            b: int
