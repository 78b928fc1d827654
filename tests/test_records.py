"""``repro.records.frozen_record`` against the stock frozen dataclass.

Every record class is compared with its *stock twin*: the same class body
(its source, compiled again) built by plain ``dataclass(frozen=True,
slots=True)``.  Both are fed the same arguments — every record a few
fixed-seed runs send, plus hand-built samples of the classes no short run
sends — and must agree on field values (``init=False`` defaults and what
``__post_init__`` computes included), ``==``, ``hash``, ``repr`` and the
constructor signature; the record must refuse assignment, lose every stash
on ``dataclasses.replace`` and survive ``copy.deepcopy`` and ``pickle``.
"""

from __future__ import annotations

import __future__
import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import sys
import textwrap
from typing import Tuple

import pytest

import repro
from contract import FAULT_RUNS
from helpers import run_small_cluster
from repro.adversary.forensics import EquivocationEvidence
from repro.core.messages import CheckpointMsg, SlotEvidence, StableCheckpoint
from repro.core.viewchange import FM_PRE_PREPARED, LM_PREPARED
from repro.crypto.mockgroup import GroupElement
from repro.crypto.signatures import Signature
from repro.crypto.threshold import CombinedSignature, SignatureShare
from repro.evm.transactions import Transaction
from repro.pbft.messages import PbftCheckpoint
from repro.records import frozen_record
from repro.services.interface import OperationResult


@frozen_record
class Everything:
    """Every field shape the generated constructor handles."""

    plain: int
    defaulted: str = "d"
    made: Tuple[int, ...] = dataclasses.field(default_factory=lambda: (1, 2))
    listed: list = dataclasses.field(default_factory=list, compare=False)
    derived: int = dataclasses.field(init=False, default=0)
    fresh: list = dataclasses.field(init=False, default_factory=list, compare=False)
    keyword: int = dataclasses.field(default=7, kw_only=True)
    named: str = dataclasses.field(default="k", kw_only=True, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "derived", self.plain + len(self.made) + self.keyword)


def stock_twin(cls):
    """``cls``'s own class body built by the stock decorator, with the
    dataclass's generated ``repr`` (an explicit one must equal it)."""
    namespace = dict(vars(sys.modules[cls.__module__]), frozen_record=lambda body: body)
    source = textwrap.dedent(inspect.getsource(cls))
    flags = __future__.annotations.compiler_flag
    exec(compile(source, f"<stock {cls.__qualname__}>", "exec", flags=flags, dont_inherit=True),
         namespace)
    plain = namespace[cls.__name__]
    body = {name: value for name, value in vars(plain).items()
            if name not in ("__repr__", "__dict__", "__weakref__")}
    twin = dataclasses.dataclass(frozen=True, slots=True)(
        type(plain.__name__, plain.__bases__, body))
    assert vars(twin)["__init__"].__code__.co_filename == "<string>"
    return twin


def _record_classes():
    """Every class under ``repro`` built by ``frozen_record``, and every
    frozen slotted dataclass there (which must be the same set)."""
    records, frozen_slotted = set(), set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if not (isinstance(value, type) and value.__module__ == module.__name__):
                continue
            if not dataclasses.is_dataclass(value):
                continue
            if value.__dataclass_params__.frozen and "__slots__" in vars(value):
                frozen_slotted.add(value)
            if vars(value)["__init__"].__code__.co_filename == f"<record {value.__qualname__}>":
                records.add(value)
    return records, frozen_slotted


RECORDS, FROZEN_SLOTTED = _record_classes()


def test_every_frozen_slotted_dataclass_is_a_record():
    assert len(RECORDS) >= 30
    assert FROZEN_SLOTTED == RECORDS


def _harvest():
    """{class: [instances]}: what three fault goldens send (view changes and
    state transfer of both stacks), walked through ``init`` fields, plus
    hand-built samples of the classes such a run never sends, or sends only
    as its timing falls (slot evidence needs a slot in flight at the view
    change)."""
    sent = []
    for name in ("sbft-c0-primary-crash-f1", "pbft-primary-crash-f2-lan",
                 "sbft-c0-restart-state-transfer"):
        protocol, kwargs = FAULT_RUNS[name]
        run_small_cluster(protocol, post_build=lambda cluster: cluster.network.add_tap(
            lambda src, dst, message: sent.append(message)), **kwargs)
    share = SignatureShare("pi", 1, ("checkpoint", 4, "d"), GroupElement(7))
    combined = CombinedSignature("pi", ("checkpoint", 4, "d"), GroupElement(9), (1, 2))
    sent += [
        CheckpointMsg(4, 1, "d", share), StableCheckpoint(4, "d", combined),
        SlotEvidence(4, (LM_PREPARED, combined, 0, "d"), (FM_PRE_PREPARED, share, 0, "d"),
                     (("d", ()),)),
        PbftCheckpoint(4, "d", 1, Signature("replica-1", "ab")),
        OperationResult(3),
        OperationResult(ok=False, error="boom"),
        Transaction("transfer", "alice", to="bob", value=5),
        Transaction("create", "alice", code=b"\x60\x00"),
        EquivocationEvidence("share", 2, (4, 0), "a", "b", ("m", 1), ("m", 2)),
        Everything(1), Everything(2, "e", (3,), [4], keyword=5, named="r"),
    ]
    found, seen = {}, set()

    def walk(value):
        if isinstance(value, tuple):
            for item in value:
                walk(item)
        elif dataclasses.is_dataclass(value) and id(value) not in seen:
            seen.add(id(value))
            found.setdefault(type(value), []).append(value)
            for field in dataclasses.fields(value):
                if field.init:
                    walk(getattr(value, field.name))

    walk(tuple(sent))
    return found


@pytest.fixture(scope="module")
def samples():
    return _harvest()


def _state(obj):
    return [getattr(obj, field.name, "<unset>") for field in dataclasses.fields(obj)]


def _outcome(function, *args):
    try:
        return "ok", function(*args)
    except TypeError as error:
        return "raises", type(error)


def _is_default(field, value):
    if field.default is not dataclasses.MISSING:
        return value == field.default
    return field.default_factory is not dataclasses.MISSING and value == field.default_factory()


def _init_args(obj):
    return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj) if field.init}


@pytest.mark.parametrize("cls", sorted(RECORDS | {Everything}, key=lambda cls: cls.__qualname__),
                         ids=lambda cls: cls.__qualname__)
def test_a_record_matches_its_stock_twin(cls, samples):
    twin = stock_twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    instances = samples.get(cls, [])[:20]
    assert instances, f"no sample of {cls.__qualname__}"
    built = []
    for sample in instances:
        args = _init_args(sample)
        record, stock = cls(**args), twin(**args)
        built.append((record, stock))
        assert _state(record) == _state(stock)
        assert repr(record) == repr(stock)
        assert _outcome(hash, record) == _outcome(hash, stock)
        assert record == cls(**args) and stock == twin(**args)
        # Only what differs from a default is passed: the defaults themselves.
        fields = {field.name: field for field in dataclasses.fields(cls)}
        given = {name: value for name, value in args.items() if not _is_default(fields[name], value)}
        assert _state(cls(**given)) == _state(twin(**given))
        # Frozen, and a replace is a fresh construction: every stash dropped.
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert _state(dataclasses.replace(sample)) == _state(record)
        for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls and clone == record and _state(clone) == _state(record)
    for (record_a, stock_a), (record_b, stock_b) in zip(built, built[1:]):
        assert (record_a == record_b) == (stock_a == stock_b)


def test_the_generated_constructor_keeps_dataclass_semantics():
    fresh = Everything(1)
    assert (fresh.made, fresh.listed, fresh.derived, fresh.fresh) == ((1, 2), [], 10, [])
    assert Everything(1).listed is not fresh.listed and Everything(1).fresh is not fresh.fresh
    with pytest.raises(TypeError):
        Everything(1, "d", (), [], 7)  # keyword-only past the positional fields
    with pytest.raises(TypeError):
        Everything()
    with pytest.raises(ValueError):
        dataclasses.replace(fresh, derived=3)

    @frozen_record
    class Unset:
        later: int = dataclasses.field(init=False)

    assert not hasattr(Unset(), "later")  # no default: unset, as with the stock init
    # One profile row per class: the constructors are compiled under its name.
    assert Everything.__init__.__code__.co_filename == "<record Everything>"
    assert Everything.__init__.__qualname__ == "Everything.__init__"
