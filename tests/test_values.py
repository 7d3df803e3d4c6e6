"""The package's seven value types are slotted classes on errors.Value: each
takes its fields positionally or by keyword, compares by value, is hashable
and read-only exactly when frozen, names every field in its repr, and copies
and pickles to an equal object."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import hypident as hy
from hypident.cli import GridConfig
from hypident.records import ReportDocument

FAMILY = hy.quadratic_family(1.0, hy.ParameterPair(0.25, 0.5))

# class, its field values in constructor order, whether it is frozen (and so
# hashable), one field change, and one change its constructor must reject
CASES = [
    (hy.EvaluationPolicy, (1e-8, 1e-7, 500), True, {"max_nodes": 600},
     ({"abs_tol": -1}, ValueError)),
    (hy.ParameterPair, (0.25, 0.5), True, {"S": 0.75}, ({"T": 0.5}, hy.DomainError)),
    (hy.QuadraticFamily, tuple(FAMILY.as_dict().values()), True, {"D1": 0j}, None),
    (hy.CheckRecord, ("barnes/a=0", 1j, 1j, 0.0, 0.0, 1e-8, hy.PASS, {"a": 0.0}), False,
     {"status": hy.FAIL}, None),
    (hy.IntegralEstimate, (2j, 1e-12, 64, True), False, {"converged": False}, None),
    (GridConfig, (["barnes"], [(0.25, 0.5)], [0.5j], [1.0], hy.DEFAULT_POLICY, None, "json",
                  None), False, {"tol_override": 1e-3}, None),
    (ReportDocument, (hy.__version__, {"format": "json"}, [], {"total": 0}, 0.5), False,
     {"wall_time_seconds": 1.5}, None),
]


@pytest.mark.parametrize("cls, values, frozen, change, invalid", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class_contract(cls, values, frozen, change, invalid):
    names = cls.__slots__
    fields = dict(zip(names, values))
    assert len(fields) == len(values)
    obj = cls(*values)
    assert obj.__reduce__() == (cls, values) and type(obj.__reduce__()[1]) is tuple
    assert obj == cls(**fields) and not obj != cls(**fields)
    assert obj.as_dict() == fields and [getattr(obj, n) for n in names] == list(values)
    assert obj != values and obj != fields   # equal only to its own class

    changed = obj.replace(**change)
    assert changed != obj and changed.as_dict() == {**fields, **change}
    assert obj.as_dict() == fields   # replace made a copy
    if invalid is not None:
        bad, error = invalid
        with pytest.raises(error):
            obj.replace(**bad)

    if frozen:
        assert hash(obj) == hash(cls(**fields)) == hash((cls, values))
        assert {obj: 1}[cls(*values)] == 1
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, values[0])
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert obj.as_dict() == fields
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(obj)
        name = next(iter(change))
        setattr(changed, name, getattr(obj, name))
        assert changed == obj
    with pytest.raises(AttributeError):   # slotted: no attribute beyond the fields
        obj.not_a_field = 1

    text = repr(obj)
    assert text.startswith(cls.__name__ + "(")
    assert all(f"{name}={getattr(obj, name)!r}" in text for name in names)

    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj


def test_one_field_value_has_a_field_tuple():
    # operator.attrgetter of one name returns the bare value, not a 1-tuple
    class Level(hy.errors.FrozenValue):
        __slots__ = ("n",)

        def __init__(self, n):
            object.__setattr__(self, "n", n)

    one = Level((2, 3))
    assert one.__reduce__() == (Level, ((2, 3),))
    assert one == Level((2, 3)) and one != Level((2, 4))
    assert hash(one) == hash((Level, ((2, 3),)))
    assert copy.copy(one) == one and repr(one).endswith(".Level(n=(2, 3))")


def test_value_class_defaults():
    assert hy.EvaluationPolicy() == hy.EvaluationPolicy(1e-10, 1e-9, 60000) == hy.DEFAULT_POLICY
    first, second = (hy.CheckRecord("barnes/a=0", None, None, 0.0, 0.0, 1e-8, hy.SKIPPED)
                     for _ in range(2))
    assert first.metadata == {} and first.metadata is not second.metadata
    cfg = GridConfig(["barnes"], [], [], [], hy.DEFAULT_POLICY, None, "json")
    assert cfg.tol_override is None


def test_import_skips_dataclasses():
    # the value types are hand-written, so a start of the CLI does not pay
    # for importing dataclasses (and inspect, which it imports)
    code = "import sys, hypident.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hy.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
