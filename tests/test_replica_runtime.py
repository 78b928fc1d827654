"""The protocol-independent replica runtime (``repro.core.runtime.Replica``).

Everything here runs once per protocol class on a bare ``Simulator`` +
``Network`` (no ``Cluster``): client intake and deduplication, cache-only
answers to retransmissions, the batch timer and proposal window, the
state-transfer throttle and ``rejoin`` are one implementation under two
agreement protocols, and the structural test keeps a second copy from growing
back.  The few points where the protocols are meant to differ (the hooks and
class attributes listed in docs/architecture.md, "Replica runtime") are pinned
per protocol at the bottom.
"""

import ast
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from helpers import make_bare_replica, make_request, run_small_cluster
from repro.core import messages as core_messages
from repro.core.config import SBFTConfig
from repro.core.messages import (
    ClientReply,
    ExecuteAck,
    NewView,
    PrePrepare,
    StateTransferRequest,
    ViewNotice,
)
from repro.core.replica import SBFTReplica
from repro.core.runtime import Replica
from repro.core.viewchange import ACTION_ADOPT, NewViewPlan, SlotDecision
from repro.crypto.hashing import block_digest
from repro.pbft import messages as pbft_messages
from repro.pbft.messages import PbftCommit, PbftNewView, PbftViewChange
from repro.pbft.replica import PBFTReplica

ROOT = Path(repro.__file__).parent
PROTOCOLS = [SBFTReplica, PBFTReplica]
CONFIG = SBFTConfig(f=1, batch_size=4, batch_timeout=0.01, window=16, client_retry_timeout=1.5)
CLIENT_NODE = CONFIG.n + 1


@pytest.fixture(params=PROTOCOLS, ids=lambda cls: cls.__name__)
def replica_cls(request):
    return request.param


def _replica(replica_cls, node_id=0, config=CONFIG):
    """-> (sim, replica, broadcasts, unicasts); nothing leaves the replica."""
    sim, _network, replica = make_bare_replica(replica_cls, config, node_id=node_id)
    broadcasts, unicasts = [], []
    replica._broadcast = broadcasts.append
    replica._send = lambda dst, message: unicasts.append((dst, message))
    return sim, replica, broadcasts, unicasts


# ----------------------------------------------------------------------
# Client intake
# ----------------------------------------------------------------------
def test_duplicate_client_request_is_queued_once(replica_cls):
    sim, primary, broadcasts, _ = _replica(replica_cls)
    request = make_request(1)
    primary._on_client_request(request, src=CLIENT_NODE)
    primary._on_client_request(request, src=CLIENT_NODE)      # client retry
    primary._on_client_request(request, src=2)                # relayed by a backup
    assert primary._pending_requests == [request]
    assert primary._pending_request_ids == {request.request_id}
    sim.run(until=0.05)                                       # batch timer flushes
    assert [m.requests for m in broadcasts if isinstance(m, PrePrepare)] == [(request,)]


@pytest.mark.parametrize("protocol", ["sbft-c0", "pbft"])
def test_every_timestamp_executes_exactly_once(protocol):
    """Cluster-level counterpart: three requests per client leave every
    backup's executed prefix at timestamp 3 — nothing ran twice."""
    cluster, result = run_small_cluster(protocol, f=1, num_clients=2, requests_per_client=3)
    assert result.run.completed_requests == 6
    for replica_id in (1, 2):
        assert cluster.replicas[replica_id]._replies.prefixes() == {0: 3, 1: 3}


def test_backup_forwards_a_client_request_and_starts_timing_it(replica_cls):
    sim, backup, _, unicasts = _replica(replica_cls, node_id=2)
    request = make_request(1)
    backup._on_client_request(request, src=CLIENT_NODE)
    assert unicasts == [(0, request)]                         # relayed to the primary
    assert backup._direct_reply_waiting == {request.request_id: request}     # held until executed
    assert backup._request_first_seen == {request.request_id: 0.0}
    assert backup._view_change_timer is not None
    assert not backup._pending_requests


def _enter_view(replica, view, adopted):
    """Enter ``view`` through the protocol's own new-view path, with slot 1
    re-proposing the requests ``adopted``."""
    if isinstance(replica, SBFTReplica):
        decision = SlotDecision(sequence=1, action=ACTION_ADOPT, digest="d", requests=adopted)
        replica._enter_view(view, NewViewPlan(view=view, last_stable=0, decisions={1: decision}))
    else:
        claim = PbftViewChange(new_view=view, replica_id=3, last_stable=0, prepared=((1, 0, "d", adopted),))
        replica._on_new_view(PbftNewView(view=view, view_changes=(claim,) * replica.quorum), src=view)


def test_a_new_primary_orders_the_requests_it_forwarded_to_the_old_one(replica_cls):
    sim, replica, broadcasts, _ = _replica(replica_cls, node_id=1)
    adopted, executed, queued, fresh = (make_request(timestamp) for timestamp in (1, 2, 3, 4))
    for request in (adopted, executed, queued, fresh):
        replica._on_client_request(request, src=CLIENT_NODE)  # view 0: forwarded to replica 0
    replica._replies.record(0, 2, 5, ("stored",))             # `executed` ran meanwhile
    replica._pending_requests.append(queued)                  # and `queued` is queued
    _enter_view(replica, 1, (adopted,))
    sim.run(until=0.05)                                       # past the batch timeout
    proposals = [message.requests for message in broadcasts if isinstance(message, PrePrepare)]
    assert proposals == [(adopted,), (queued, fresh)]          # each request proposed once


def test_a_backup_hands_what_it_forwarded_to_the_new_primary(replica_cls):
    sim, replica, _, unicasts = _replica(replica_cls, node_id=2)
    adopted, fresh = make_request(1), make_request(2)
    for request in (adopted, fresh):
        replica._on_client_request(request, src=CLIENT_NODE)
    del unicasts[:]
    _enter_view(replica, 1, (adopted,))
    assert unicasts == [(1, fresh)]


def test_a_pre_prepare_that_overtakes_the_new_view_is_taken_on_entering_the_view(replica_cls):
    sim, replica, _, _ = _replica(replica_cls, node_id=2)
    requests = (make_request(1),)
    early = PrePrepare(sequence=1, view=1, requests=requests, primary_signature=None,
                       digest=block_digest(1, 1, [request.request_id for request in requests]))
    replica._on_pre_prepare(early, src=1)                     # view 1's primary: kept
    replica._on_pre_prepare(early, src=3)                     # anyone else: dropped
    assert replica._early_pre_prepares == {(1, 1): (early, 1)} and replica.log.peek(1) is None
    _enter_view(replica, 1, requests)
    assert replica.log.peek(1).pre_prepare is early and replica._early_pre_prepares == {}


def test_a_future_primarys_flood_of_pre_prepares_keeps_the_buffer_bounded(replica_cls):
    """Replica 1 is the primary of views 1, 5, 9, ...  Only the next view
    and the views this replica asked for are kept, inside the window, and
    one pre-prepare per (view, sequence)."""
    sim, replica, _, _ = _replica(replica_cls, node_id=2)
    def flood(view, sequence, tag):
        requests = (make_request(tag),)
        digest = block_digest(sequence, view, [request.request_id for request in requests])
        replica._on_pre_prepare(PrePrepare(sequence=sequence, view=view, requests=requests,
                                           primary_signature=None, digest=digest), src=1)
    for view in (1, 5, 9, 10_001):
        for sequence in range(1, 3 * CONFIG.window):
            flood(view, sequence, tag=1)
            flood(view, sequence, tag=2)                      # a second one per slot
    assert sorted(replica._early_pre_prepares) == [(1, sequence) for sequence in range(1, CONFIG.window + 1)]
    replica._view_change_sent_for.add(5)                      # it asked for view 5 itself
    flood(5, 1, tag=1)
    assert len(replica._early_pre_prepares) == CONFIG.window + 1


def test_a_pre_prepare_past_the_window_leaves_no_slot(replica_cls):
    """The primary's pre-prepare for a sequence past ``last_stable +
    window`` is dropped before the log makes a slot for it."""
    sim, replica, _, _ = _replica(replica_cls, node_id=2)
    requests = (make_request(1),)
    sequence = replica.last_stable + CONFIG.window + 1
    digest = block_digest(sequence, 0, [request.request_id for request in requests])
    replica._on_pre_prepare(PrePrepare(sequence=sequence, view=0, requests=requests,
                                       primary_signature=None, digest=digest), src=0)
    assert replica.log.peek(sequence) is None


def test_a_replica_charges_nothing_for_its_own_messages(replica_cls):
    """A message a replica sent itself costs no check, but still takes its
    place in the queue of the message core."""
    sim, replica, _, _ = _replica(replica_cls)
    request = make_request(1)
    own = replica._signed_pre_prepare(1, (request,))
    assert replica._message_cost(own, replica.node_id) == 0.0
    assert replica._message_cost(own, 1) == replica._cost_table[PrePrepare](own) > 0.0
    replica.deliver(request, CLIENT_NODE)
    replica.deliver(own, replica.node_id)
    assert replica.cpu.total_busy_time == replica.costs.rsa_verify        # the request's check only
    first, second = sorted(entry[:2] for entry in sim._heap)
    assert first[0] == second[0] > 0.0                                   # queued behind it


def test_retransmission_of_executed_request_is_answered_only_from_the_cache(replica_cls):
    sim, replica, broadcasts, unicasts = _replica(replica_cls)
    replica.client_directory[0] = CLIENT_NODE
    replica._replies.record(0, 1, 7, ("stored",))             # executed, values cached
    replica._replies.adopt_prefixes({1: 5})                   # executed, values unknown

    replica._on_client_request(make_request(1), src=CLIENT_NODE)
    [(dst, reply)] = unicasts
    assert dst == CLIENT_NODE and isinstance(reply, ClientReply)
    assert (reply.sequence, reply.timestamp, reply.values) == (7, 1, ("stored",))
    assert reply.replica_id == replica.node_id
    assert replica.signing_key.verify_key.verify(("reply", 0, 1, ("stored",)), reply.signature)

    # Known executed but nothing cached: silence, never a fabricated value.
    replica._on_client_request(make_request(3, client_id=1), src=CLIENT_NODE)
    assert len(unicasts) == 1
    # Neither retransmission is ordered again.
    assert not replica._pending_requests and not replica._request_first_seen
    assert not broadcasts


# ----------------------------------------------------------------------
# Batching and the proposal window
# ----------------------------------------------------------------------
def test_batch_timer_arms_below_the_threshold_and_proposal_cancels_it(replica_cls):
    sim, primary, broadcasts, _ = _replica(replica_cls)
    for timestamp in (1, 2, 3):
        primary._on_client_request(make_request(timestamp), src=CLIENT_NODE)
    assert not broadcasts and primary._batch_timer is not None
    primary._on_client_request(make_request(4), src=CLIENT_NODE)     # reaches batch_size
    assert [len(m.requests) for m in broadcasts] == [4]
    assert primary._batch_timer is None and primary.next_sequence == 2
    assert primary.stats["blocks_proposed"] == 1


def test_can_propose_stops_at_the_active_window_and_the_stable_window(replica_cls):
    sim, primary, _, _ = _replica(replica_cls)
    active, window = CONFIG.active_window, CONFIG.window               # 4 and 16
    primary.next_sequence = active                                      # active - 1 in flight
    assert primary._can_propose()
    primary.next_sequence = active + 1                                  # active in flight
    assert not primary._can_propose()
    primary.last_executed = window                                      # nothing in flight...
    primary.next_sequence = window + 1                                  # ...but ls + win reached
    assert not primary._can_propose()
    primary.last_stable = 1
    assert primary._can_propose()
    # A blocked primary keeps the queue instead of proposing.
    primary.last_stable = 0
    for timestamp in range(1, 6):
        primary._on_client_request(make_request(timestamp), src=CLIENT_NODE)
    assert len(primary._pending_requests) == 5 and primary.next_sequence == window + 1


# ----------------------------------------------------------------------
# State transfer and rejoin
# ----------------------------------------------------------------------
def test_state_transfer_throttle_suppresses_a_second_request_at_the_same_position(replica_cls):
    sim, replica, _, unicasts = _replica(replica_cls, node_id=1)
    requests = lambda: [m for _, m in unicasts if isinstance(m, StateTransferRequest)]
    replica._request_state_transfer(hint=2)
    replica._request_state_transfer(hint=3)                   # same last_executed, same instant
    assert len(requests()) == 1 and unicasts[0][0] == 2
    assert replica.stats["state_transfers"] == 1
    replica.last_executed = 5                                 # progress lifts the throttle
    replica._request_state_transfer(hint=2)
    assert [m.from_sequence for m in requests()] == [0, 5]
    sim.schedule(CONFIG.client_retry_timeout, lambda: None)
    sim.run()                                                 # ...and so does the retry window
    replica._request_state_transfer(hint=2)
    assert len(requests()) == 3


def test_rejoin_clears_stale_timer_handles_and_the_execution_flag(replica_cls):
    sim, replica, _, unicasts = _replica(replica_cls, node_id=1)
    replica._on_client_request(make_request(1), src=CLIENT_NODE)     # arms the view-change timer
    replica._batch_timer = replica.set_timer(1.0, lambda: None)
    replica._executing = 1                                    # block 1 on the execution core
    replica.rejoin()                                          # not crashed: a no-op
    assert replica._executing == 1 and replica._view_change_timer is not None
    replica.crash()
    replica.rejoin()
    assert not replica.crashed
    assert replica._batch_timer is None and replica._view_change_timer is None
    assert replica._executing is None and replica._view_change_attempts == 0
    assert isinstance(unicasts[-1][1], StateTransferRequest)  # re-syncs from a peer


@pytest.mark.parametrize("crash", [False, True], ids=["live", "crashed"])
def test_a_message_whose_cpu_work_completes_after_a_crash_is_never_handled(replica_cls, crash):
    """``on_message`` puts ``Replica._dispatch`` itself on the CPU, with no
    closure per message, so the crashed check lives in ``_dispatch``: a
    request delivered before the crash but verified after it changes nothing."""
    sim, primary, broadcasts, _ = _replica(replica_cls)
    request = make_request(1)
    primary.deliver(request, CLIENT_NODE)
    [(finish, _seq, callback, args, _handle)] = sim._heap
    assert callback == primary._dispatch and args == (request, CLIENT_NODE) and finish > 0.0
    if crash:
        primary.crash()
    sim.run(until=0.05)                                       # past the batch timeout
    assert primary.stats["blocks_proposed"] == len(broadcasts) == (0 if crash else 1)
    assert bool(primary._request_first_seen) is not crash


def test_the_view_change_starts_one_timeout_after_the_oldest_request(replica_cls):
    """The timer armed for an older request that has since executed re-arms
    for what is left of the oldest one's timeout, not for a fresh one."""
    sim, backup, broadcasts, _ = _replica(replica_cls, node_id=2)
    timeout = backup._view_change_timeout()
    first, second = make_request(1), make_request(2)
    backup._on_client_request(first, src=CLIENT_NODE)         # arms the timer for `timeout`
    sim.run(until=0.6 * timeout)
    backup._on_client_request(second, src=CLIENT_NODE)        # the timer is already armed
    del backup._request_first_seen[first.request_id]          # as if `first` executed
    sim.run(until=1.6 * timeout - 1e-6)
    assert broadcasts == []
    sim.run(until=1.6 * timeout + 1e-6)
    assert [message.new_view for message in broadcasts] == [1]


@pytest.mark.parametrize("crash", [False, True], ids=["live", "crashed"])
def test_a_replica_timer_armed_before_a_crash_never_fires(replica_cls, crash):
    """The view-change timer is a bound ``Process._fire`` entry; a crash
    cancels it, so it stays silent even when the replica rejoins before its
    deadline (the request it was timing is still outstanding)."""
    sim, backup, broadcasts, _ = _replica(replica_cls, node_id=2)
    backup._on_client_request(make_request(1), src=CLIENT_NODE)     # arms the view-change timer
    handle = backup._view_change_timer
    [(_time, _seq, callback, args, event)] = sim._heap
    assert callback == backup._fire and args[0] == handle and event is backup._timers[handle]
    if crash:
        backup.crash()
        backup.rejoin()
    sim.run(until=backup._view_change_timeout() * 1.5)
    assert backup.stats["view_changes"] == len(broadcasts) == (0 if crash else 1)
    assert bool(backup._request_first_seen)


# ----------------------------------------------------------------------
# One copy: nothing the runtime owns may be redefined by a protocol class
# ----------------------------------------------------------------------
#: The only ``Replica`` methods a protocol class may define: the two it must
#: implement and the hooks where the protocols are meant to differ.
HOOKS = {
    "__init__",
    "build_view_change",
    "_after_execute",
    "_new_view",
    "_forwards_request_from",
    "_after_batch_timeout",
    "_execution_proof",
    "_forget_timer_handles",
    "_holds",
    "_collected",
}

#: Named in the extraction's contract; listed so a rename cannot slip past.
MOVED = {
    "primary", "is_primary", "rejoin",
    "_send", "_broadcast", "_send_to_client", "_message_cost", "_dispatch",
    "_on_client_request", "_maybe_propose", "_on_batch_timeout", "_can_propose",
    "_propose", "_signed_pre_prepare",
    "_try_execute", "_finish_execution", "_signed_reply", "_send_direct_reply",
    "_request_state_transfer", "_on_state_transfer_request", "_on_state_transfer_response",
    "_ensure_view_change_timer", "_on_view_change_timeout", "_start_view_change",
    "_on_view_change",
}


def test_protocol_classes_do_not_redefine_the_runtime(replica_cls):
    runtime_members = {
        name for name, member in vars(Replica).items()
        if inspect.isfunction(member) or isinstance(member, property)
    }
    assert MOVED <= runtime_members
    assert runtime_members & set(vars(replica_cls)) <= HOOKS
    # on_message stays per class: the benchmark counts handled messages per
    # protocol by the code object of each class's own method.
    assert "on_message" in vars(replica_cls) and "on_message" not in vars(Replica)


def test_shares_are_checked_and_combined_in_one_place_and_view_changes_taken_in_the_runtime():
    """``SBFTReplica._combine`` holds the only ``verify_share`` and ``combine``
    calls of ``core/replica.py``; the view-change intake exists once, in
    ``core/runtime.py``."""
    trees = {cls: ast.parse(inspect.getsource(sys.modules[cls.__module__])) for cls in PROTOCOLS}
    calls = [
        node.func.attr for node in ast.walk(trees[SBFTReplica])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert (calls.count("combine"), calls.count("verify_share")) == (1, 1)
    for tree in trees.values():
        assert "_on_view_change" not in {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }


#: Dispatched by the client (``core/client.py``), never by a replica.
CLIENT_BOUND = {ExecuteAck, ClientReply, ViewNotice}


def _dispatch_gaps(replica):
    """Message classes missing from (or stale in) a live replica's two
    dispatch tables, as ``"Class.table: Message"`` strings.  What a replica
    must handle: every message class its stack's ``messages`` module defines
    or its own module imports, minus the client-bound two."""
    stack = core_messages if isinstance(replica, SBFTReplica) else pbft_messages
    names = {**vars(sys.modules[type(replica).__module__]), **vars(stack)}
    required = {
        cls for cls in names.values() if isinstance(cls, type) and hasattr(cls, "msg_type")
    } - CLIENT_BOUND
    return sorted(
        f"{type(replica).__name__}.{table}: {cls.__name__}"
        for table in ("_handlers", "_cost_table")
        for cls in required ^ (set(getattr(replica, table)) - CLIENT_BOUND)
    )


def test_dispatch_tables_cover_every_message_class(replica_cls):
    _sim, _network, replica = make_bare_replica(replica_cls, CONFIG)
    assert _dispatch_gaps(replica) == []
    assert len(replica._handlers) == {SBFTReplica: 15, PBFTReplica: 9}[replica_cls]
    # A message without a handler is dropped silently and one without a cost
    # is charged one hash: each deletion is reported, naming the class.
    forgotten = NewView if replica_cls is SBFTReplica else PbftCommit
    del replica._handlers[forgotten]
    del replica._cost_table[PrePrepare]
    name = replica_cls.__name__
    assert _dispatch_gaps(replica) == [
        f"{name}._cost_table: PrePrepare", f"{name}._handlers: {forgotten.__name__}",
    ]


#: What only an adversary needs: the old mode switch, share forgery, anything
#: that equivocates.  The four behaviour names are banned as string literals
#: only, so honest identifiers such as ``stale_checkpoints`` pass.
ADVERSARY_IDENTIFIERS = {"byzantine_mode", "activate_byzantine", "BYZANTINE_MODES", "forge_share"}
ADVERSARY_LITERALS = {"silent", "equivocate", "bad-shares", "stale-viewchange"}


def _adversary_code(tree):
    """Adversary vocabulary in the *code* of a module: identifiers anywhere,
    string literals anywhere but docstrings (comments never reach the AST)."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            if id(node) not in docstrings and node.value in ADVERSARY_LITERALS:
                yield node.lineno, repr(node.value)
            continue
        names = [
            getattr(node, field, None) for field in ("id", "attr", "name", "arg")
        ] + [alias.name for alias in getattr(node, "names", ()) if isinstance(alias, ast.alias)]
        for name in names:
            if isinstance(name, str) and (name in ADVERSARY_IDENTIFIERS or "equivocat" in name):
                yield node.lineno, name


@pytest.mark.parametrize("package", ["core", "pbft", "sim"])
def test_honest_packages_carry_no_adversary_code(package):
    """core/, pbft/ and sim/ are the honest protocol plus environmental
    faults; what a compromised replica does lives in repro.adversary."""
    root = ROOT / package
    found = [
        f"{path.relative_to(root.parent)}:{line}: {what}"
        for path in sorted(root.rglob("*.py"))
        for line, what in _adversary_code(ast.parse(path.read_text()))
    ]
    assert not found, "\n".join(found)


def test_adversary_code_detector_sees_what_it_must_and_no_more():
    planted = ast.parse(textwrap.dedent("""
        'silent'
        stale_checkpoints = silent_count = 0   # honest names; comment: equivocate
        def f(self, equivocating=False):
            "bad-shares"
            if self.byzantine_mode == 'silent':
                self.keys.tau.forge_share(1)
            return self.kind == 'byzantine'
    """))
    assert sorted(what for _line, what in _adversary_code(planted)) == [
        "'silent'", "byzantine_mode", "equivocating", "forge_share",
    ]


_EMPTY_CONTAINER_CALLS = {
    "dict", "list", "set", "Counter", "defaultdict", "OrderedDict", "deque",
    "WeakValueDictionary", "WeakKeyDictionary", "WeakSet",
}


def _runtime_tables(tree):
    """Module-level names bound to an *empty* container — the shape of a table
    filled at run time — and ``global`` statements anywhere in the module."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty_literal = isinstance(value, (ast.Dict, ast.List, ast.Set)) and not (
            value.keys if isinstance(value, ast.Dict) else value.elts
        )
        # ``defaultdict(list)`` is empty too: only its factory is an argument.
        func = value.func if isinstance(value, ast.Call) else None
        name = getattr(func, "id", getattr(func, "attr", None))
        empty_call = name in _EMPTY_CONTAINER_CALLS and (name == "defaultdict" or not value.args)
        if empty_literal or (empty_call and not value.keywords):
            for target in targets:
                yield node.lineno, ast.unparse(target)
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield node.lineno, "global " + ", ".join(node.names)


def test_no_module_holds_a_table_filled_at_run_time():
    """Every memo rides on an object built for the run (the block's
    operations, a proof, a store, the per-run collector-group dict and
    threshold schemes): no module binds a name to an empty container or
    rebinds a global.  ``evm.opcodes.OPCODES`` is filled by the import itself
    and constant afterwards."""
    found = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted(ROOT.rglob("*.py"))
        for line, what in _runtime_tables(ast.parse(path.read_text()))
        if (path.relative_to(ROOT).as_posix(), what) != ("evm/opcodes.py", "OPCODES")
    ]
    assert not found, "\n".join(found)


def test_runtime_table_detector_sees_what_it_must_and_no_more():
    planted = ast.parse(textwrap.dedent("""
        import collections
        import weakref
        from weakref import WeakSet
        _MEMO = {}
        _seen: set = set()
        _by_kind = collections.defaultdict(list)
        _counts = Counter()
        _versions = weakref.WeakValueDictionary()
        _owners: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        _live = WeakSet()
        LIMITS = {"hits": 0}
        NAMES = ("a", "b")
        _copy = dict(LIMITS)
        _ref = weakref.ref(LIMITS)
        def toggle(on):
            global _enabled
            _enabled = on
            local = {}
            handles = weakref.WeakValueDictionary()
    """))
    assert sorted(what for _line, what in _runtime_tables(planted)) == [
        "_MEMO", "_by_kind", "_counts", "_live", "_owners", "_seen", "_versions", "global _enabled",
    ]


def _imports(tree):
    """Every dotted name a module imports, wherever the statement stands (a
    lazy import inside a function counts); ``from a import b`` yields ``a``
    and ``a.b`` — ``b`` may be a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, base.rstrip(".") + "." + alias.name


def _forbidden_imports(tree, forbidden):
    """Imports of a ``forbidden`` module or anything under it — and relative
    imports, which ``src/repro`` does not use and this cannot resolve."""
    return [
        (line, name) for line, name in _imports(tree)
        if name.startswith(".") or any(name == f or name.startswith(f + ".") for f in forbidden)
    ]


#: Everything that runs inside a simulation: none of it may reach
#: ``repro.experiments``, the one package that times the host.
IN_SIMULATION = ("core", "pbft", "sim", "crypto", "services", "evm", "workloads", "metrics",
                 "protocols")
#: Pure functions of their arguments: no simulator (so no ``sim.now`` and no
#: simulator RNG), no ``random``, no ``time`` — nothing there *can* make a
#: memoized value depend on who computed it or when.
PURE = ("crypto", "evm", "services")
#: What the clock trap (tests/conftest.py) raises on when a run reads it,
#: kept out of code no test runs as well.
CLOCKS = ("time", "datetime", "uuid", "secrets")


def _all_but_experiments(root):
    """Every package but ``experiments`` (it times the host), and ``""``:
    the top-level modules."""
    return ("",) + tuple(sorted(
        path.name for path in root.iterdir()
        if (path / "__init__.py").is_file() and path.name != "experiments"
    ))


def _modules(root, package):
    """``package``'s modules, all levels down; ``""`` is the top level alone."""
    return sorted((root / package).rglob("*.py") if package else root.glob("*.py"))


def _import_findings(root, packages, forbidden):
    return [
        f"{path.relative_to(root)}:{line}: imports {name}"
        for package in packages
        for path in _modules(root, package)
        for line, name in _forbidden_imports(ast.parse(path.read_text()), forbidden)
    ]


@pytest.mark.parametrize("packages,forbidden", [
    (IN_SIMULATION, ("repro.experiments",)),
    (PURE, ("repro.sim", "random", "time")),
    (_all_but_experiments(ROOT), CLOCKS),
], ids=["in-simulation", "pure", "no-clock"])
def test_packages_do_not_import_what_would_let_them_see_a_clock(packages, forbidden):
    found = _import_findings(ROOT, packages, forbidden)
    assert not found, "\n".join(found)


def _environment_reads(tree):
    """Lines that read the process environment: ``os.environ`` /
    ``os.getenv`` or either name imported from ``os``."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "os" and node.attr in ("environ", "getenv", "getenvb"))
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in ("environ", "getenv", "getenvb") for alias in node.names))
    )


def test_no_module_reads_the_process_environment():
    """A run is a function of its arguments: no switch lives in the environment."""
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(ROOT.rglob("*.py"))
        for line in _environment_reads(ast.parse(path.read_text()))
    ]
    assert not found, found
    planted = ast.parse("import os\nfrom os import getenv\nos.environ.get('X')\n")
    assert _environment_reads(planted) == [2, 3]


def test_import_detector_sees_what_it_must_and_no_more(tmp_path):
    planted = ast.parse(textwrap.dedent("""
        import random, timeit
        import repro.experiments.harness as harness
        from repro import experiments
        from repro.core import config          # fine
        from . import sibling                   # relative: cannot be resolved here
        def lazily():
            from repro.experiments.harness import run
            import repro.experimentsx           # a different package
    """))
    forbidden = ("repro.experiments", "random", "time")
    assert sorted({name for _line, name in _forbidden_imports(planted, forbidden)}) == [
        ".", ".sibling", "random", "repro.experiments", "repro.experiments.harness",
        "repro.experiments.harness.run",
    ]
    # A clock planted in an in-simulation module and in a top-level one is
    # named at its line; the harness's own clock is not looked at.
    for module, source in [
        ("core/__init__.py", ""),
        ("core/runtime.py", '"""Doc."""\nfrom repro.core import log\nimport time\n'),
        ("records.py", "from datetime import datetime\n"),
        ("experiments/__init__.py", ""),
        ("experiments/harness.py", "import time\n"),
    ]:
        (tmp_path / module).parent.mkdir(exist_ok=True)
        (tmp_path / module).write_text(source)
    assert _all_but_experiments(tmp_path) == ("", "core")
    assert _import_findings(tmp_path, _all_but_experiments(tmp_path), CLOCKS) == [
        "records.py:1: imports datetime",
        "records.py:1: imports datetime.datetime",
        "core/runtime.py:3: imports time",
    ]


def test_on_message_is_a_distinct_code_object_per_protocol():
    assert SBFTReplica.on_message.__code__ is not PBFTReplica.on_message.__code__
    assert "core/replica.py" in SBFTReplica.on_message.__code__.co_filename
    assert "pbft/replica.py" in PBFTReplica.on_message.__code__.co_filename


# ----------------------------------------------------------------------
# Where the protocols are meant to differ (frozen per-protocol behaviour)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls,bounced", [(SBFTReplica, False), (PBFTReplica, True)])
def test_request_relayed_by_the_primary_is_bounced_back_only_by_the_baseline(cls, bounced):
    sim, backup, _, unicasts = _replica(cls, node_id=2)
    request = make_request(1)
    backup._on_client_request(request, src=backup.primary)
    assert ([dst for dst, _ in unicasts] == [backup.primary]) is bounced
    assert (request.request_id in backup._direct_reply_waiting) is bounced
    assert request.request_id in backup._request_first_seen       # timed either way


@pytest.mark.parametrize("cls,factor", [(SBFTReplica, 2), (PBFTReplica, 1)])
def test_view_change_timeout_backoff_per_protocol(cls, factor):
    sim, replica, _, _ = _replica(cls, node_id=1)
    base = CONFIG.view_change_timeout
    assert replica._view_change_timeout() == base
    replica._view_change_attempts = 3
    assert replica._view_change_timeout() == base * factor**3


@pytest.mark.parametrize("cls,rearms", [(SBFTReplica, True), (PBFTReplica, False)])
def test_batch_timer_rearms_on_a_blocked_flush_only_in_sbft(cls, rearms):
    sim, primary, broadcasts, _ = _replica(cls)
    primary.next_sequence = CONFIG.active_window + 1          # window full
    primary._on_client_request(make_request(1), src=CLIENT_NODE)
    assert primary._batch_timer is not None
    sim.run(until=CONFIG.batch_timeout * 1.5)                 # first timeout: flush blocked
    assert not broadcasts and len(primary._pending_requests) == 1
    assert (primary._batch_timer is not None) is rearms
