"""AST-based protocol-invariant linter (zero third-party dependencies).

Run as ``python -m repro.analysis.lint [paths...]``.  Each rule turns one of
the repository's documented hot-path invariants (ROADMAP "Hot-path
invariants", ``docs/architecture.md``) into a machine check:

``dispatch-complete``
    Every final message dataclass in ``core/messages.py`` and
    ``pbft/messages.py`` must be registered in both ``_handlers`` and
    ``_cost_table`` of ``SBFTReplica`` / ``PBFTReplica``.  Client-bound
    messages (``ExecuteAck``, ``ClientReply``) are dispatched by the client
    and are exempt from the replica tables.
``no-wall-clock``
    Deterministic packages must not read wall clocks or ambient entropy
    (``time.time``, ``datetime.now``, ``os.urandom``, module-level
    ``random.*`` draws, ``uuid``, ``secrets``).  Only injected seeded
    ``random.Random`` instances may draw.
``ordered-iteration``
    Iterating a ``set`` (or ``dict.keys`` of an unordered source) in a
    decision-affecting module is flagged unless wrapped in ``sorted()`` or
    fed to an order-insensitive consumer.
``memo-purity``
    Functions that read or write a memo table must not consult ``sim.now``,
    an RNG, or declared global/nonlocal mutable state.
``stale-suppression``
    A ``# repro: allow[<rule>]`` comment naming an enabled rule that no
    longer fires on that line is itself a finding, so the suppression
    inventory cannot rot as the code underneath it changes.

Findings may be suppressed per physical line with ``# repro: allow[<rule>]``
(comma-separate multiple rule ids).  ``--json`` emits a machine-readable
report.  Exit status is 1 when any unsuppressed finding remains.

The per-function source detectors (wall-clock/entropy reads, unordered
iteration, memo impurity) are exported as ``iter_*_atoms`` generators so the
interprocedural engine in :mod:`repro.analysis.flow` can reuse them as the
atomic facts of its transitive taint analyses.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

# --------------------------------------------------------------------------
# Findings and modules
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One linter finding, addressable by rule id, file, and line.

    ``id`` is content-derived (rule + file + the *text* of the flagged line +
    message), so it survives unrelated line-number drift: CI artifacts diff
    cleanly across runs and baseline files merge without renumbering.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    id: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


def content_finding_id(
    tool: str, rule: str, path: str, line_text: str, message: str, occurrence: int = 0
) -> str:
    """A short stable id derived from finding *content*, not line numbers."""
    basis = "\x1f".join((tool, rule, path, line_text.strip(), message, str(occurrence)))
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:12]


def assign_finding_ids(
    findings: Sequence[Finding], sources: Dict[str, Sequence[str]], tool: str = "lint"
) -> List[Finding]:
    """Return findings with content-derived ``id`` fields filled in.

    ``sources`` maps display path -> source lines (for the flagged line's
    text).  Identical (rule, path, text, message) tuples get an occurrence
    counter so duplicates still receive distinct ids.
    """
    seen: Dict[str, int] = {}
    out: List[Finding] = []
    for finding in findings:
        lines = sources.get(finding.path, ())
        text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        base = content_finding_id(tool, finding.rule, finding.path, text, finding.message)
        occurrence = seen.get(base, 0)
        seen[base] = occurrence + 1
        fid = (
            base
            if occurrence == 0
            else content_finding_id(
                tool, finding.rule, finding.path, text, finding.message, occurrence
            )
        )
        out.append(
            Finding(finding.rule, finding.path, finding.line, finding.col, finding.message, fid)
        )
    return out


_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_\-, ]+)\]")

# Sub-packages of ``repro`` whose code must stay deterministic.  The
# ``experiments`` package is deliberately absent: benchmark harnesses
# legitimately read ``time.perf_counter``/``process_time`` for wall-cost
# reporting.  The empty string covers top-level ``repro/*.py`` modules.
DETERMINISTIC_PACKAGES = frozenset(
    {
        "",
        "adversary",
        "analysis",
        "core",
        "crypto",
        "evm",
        "metrics",
        "pbft",
        "protocols",
        "services",
        "sim",
        "workloads",
    }
)


class Module:
    """A parsed source file plus its suppression table."""

    def __init__(self, path: Path, display: str, source: str) -> None:
        self.path = path
        self.display = display
        self.source = source
        self.tree = ast.parse(source, filename=display)
        self.allows: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _ALLOW_RE.search(line)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                self.allows[lineno] = {rule for rule in rules if rule}
        self.package = self._repro_package(path)

    @staticmethod
    def _repro_package(path: Path) -> Optional[str]:
        """The ``repro`` sub-package this file belongs to, if any.

        Returns ``None`` for files outside a ``repro`` package directory
        (e.g. test fixtures), which makes every per-module rule apply.
        """
        parts = path.parts
        if "repro" not in parts:
            return None
        index = len(parts) - 1 - parts[::-1].index("repro")
        remainder = parts[index + 1 :]
        if len(remainder) <= 1:
            return ""  # top-level repro/*.py module
        return remainder[0]

    @property
    def deterministic(self) -> bool:
        return self.package is None or self.package in DETERMINISTIC_PACKAGES

    def suffix_is(self, *suffixes: str) -> bool:
        posix = self.path.as_posix()
        return any(posix.endswith(suffix) for suffix in suffixes)


def iter_python_files(
    paths: Sequence[Path], exclude: Sequence[Path] = ()
) -> Iterator[Path]:
    skipped = [path.as_posix().rstrip("/") + "/" for path in exclude]
    for path in paths:
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            posix = candidate.as_posix()
            if any(posix.startswith(prefix) for prefix in skipped):
                continue
            yield candidate


def load_modules(
    paths: Sequence[Path], exclude: Sequence[Path] = ()
) -> Tuple[List[Module], List[Finding]]:
    modules: List[Module] = []
    errors: List[Finding] = []
    for file_path in iter_python_files(paths, exclude):
        display = file_path.as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
            modules.append(Module(file_path, display, source))
        except SyntaxError as exc:
            errors.append(
                Finding("syntax-error", display, exc.lineno or 1, 0, f"cannot parse: {exc.msg}")
            )
        except OSError as exc:
            errors.append(Finding("syntax-error", display, 1, 0, f"cannot read: {exc}"))
    return modules, errors


# --------------------------------------------------------------------------
# AST helpers
# --------------------------------------------------------------------------


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _dict_str_keys(node: ast.Dict) -> List[Tuple[str, int]]:
    keys = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append((key.value, key.lineno))
    return keys


def _dict_name_keys(node: ast.Dict) -> List[str]:
    names = []
    for key in node.keys:
        if isinstance(key, ast.Name):
            names.append(key.id)
        elif isinstance(key, ast.Attribute):
            names.append(key.attr)
    return names


# --------------------------------------------------------------------------
# Rule: no-wall-clock
# --------------------------------------------------------------------------

_TIME_FORBIDDEN = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "localtime",
        "gmtime",
        "ctime",
    }
)
_DATETIME_FORBIDDEN = frozenset({"now", "utcnow", "today"})
_OS_FORBIDDEN = frozenset({"urandom", "getrandom"})
_ENTROPY_MODULES = frozenset({"uuid", "secrets"})


def iter_wall_clock_atoms(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Ambient time/entropy reads in ``tree`` as (node, message) atoms.

    This is the atomic fact ``check_no_wall_clock`` reports per module and
    :mod:`repro.analysis.flow` propagates through the call graph (there the
    tree is a single function body).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _ENTROPY_MODULES:
                    yield node, f"import of entropy module '{root}' is forbidden here"
        elif isinstance(node, ast.ImportFrom):
            top = (node.module or "").split(".")[0]
            if top in _ENTROPY_MODULES:
                yield node, f"import from entropy module '{top}' is forbidden here"
            elif top == "time":
                for alias in node.names:
                    if alias.name in _TIME_FORBIDDEN:
                        yield node, f"wall-clock import 'time.{alias.name}'"
            elif top == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield node, (
                            f"module-level 'random.{alias.name}' import; draw from an "
                            "injected seeded Random instead"
                        )
            elif top == "os":
                for alias in node.names:
                    if alias.name in _OS_FORBIDDEN:
                        yield node, f"ambient entropy 'os.{alias.name}'"
        elif isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if not chain or len(chain) < 2:
                continue
            root, attr = chain[0], chain[-1]
            if root == "time" and attr in _TIME_FORBIDDEN:
                yield node, f"wall-clock read 'time.{attr}'; use sim.now"
            elif root in ("datetime", "date") and attr in _DATETIME_FORBIDDEN:
                yield node, f"wall-clock read '{'.'.join(chain)}'; use sim.now"
            elif root == "os" and attr in _OS_FORBIDDEN:
                yield node, f"ambient entropy 'os.{attr}'; use a seeded Random"
            elif root in _ENTROPY_MODULES:
                yield node, f"ambient entropy '{'.'.join(chain)}'"
            elif root == "random" and len(chain) == 2 and attr != "Random":
                yield node, (
                    f"module-level 'random.{attr}'; draw from an injected seeded "
                    "Random instance instead"
                )


def check_no_wall_clock(module: Module) -> Iterator[Finding]:
    if not module.deterministic:
        return
    for node, message in iter_wall_clock_atoms(module.tree):
        yield Finding("no-wall-clock", module.display, node.lineno, node.col_offset, message)


# --------------------------------------------------------------------------
# Rule: ordered-iteration
# --------------------------------------------------------------------------

_SET_ANNOTATION_RE = re.compile(r"\b(?:[Ff]rozen[Ss]et|[Ss]et)\b")
_ORDER_INSENSITIVE = frozenset({"sorted", "len", "sum", "max", "min", "any", "all", "frozenset"})
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _call_name(node) in ("set", "frozenset")
    return False


def _collect_set_symbols(tree: ast.AST) -> Tuple[Set[str], Set[str]]:
    """Names and attribute names bound to set-typed values anywhere."""
    names: Set[str] = set()
    attrs: Set[str] = set()

    def note(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            attrs.add(target.attr)

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                note(target)
        elif isinstance(node, ast.AnnAssign):
            annotation = ast.unparse(node.annotation)
            if _SET_ANNOTATION_RE.search(annotation) or (
                node.value is not None and _is_set_expr(node.value)
            ):
                note(node.target)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            if _SET_ANNOTATION_RE.search(ast.unparse(node.annotation)):
                names.add(node.arg)
    return names, attrs


def iter_unordered_iteration_atoms(
    tree: ast.AST, names: Set[str], attrs: Set[str]
) -> Iterator[Tuple[ast.AST, str]]:
    """Order-leaking set iterations in ``tree`` as (node, message) atoms.

    ``names``/``attrs`` are the set-typed symbols of the *enclosing module*
    (from :func:`_collect_set_symbols`); ``tree`` may be the module itself or
    a single function body (the flow engine's per-function use).
    """

    def is_set_ref(node: ast.AST) -> bool:
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Attribute):
            return node.attr in attrs
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            return bool(chain) and chain[-1] == "keys" and len(chain) >= 2
        return False

    def describe(node: ast.AST) -> str:
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse failure is cosmetic
            return "<set>"

    def message(node: ast.AST) -> str:
        # NB: the advice spells the comment without the leading '#' so this
        # string literal itself never registers in a suppression table.
        return (
            f"iteration over unordered '{describe(node)}'; wrap in sorted() or "
            "add a 'repro: allow[ordered-iteration]' comment with a determinism "
            "argument"
        )

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if is_set_ref(node.iter):
                yield node.iter, message(node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # Set comprehensions produce another unordered set, so iterating a
            # set inside one is harmless; list/generator/dict comprehensions
            # leak the iteration order (dicts preserve insertion order).
            for comp in node.generators:
                if is_set_ref(comp.iter):
                    yield comp.iter, message(comp.iter)
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _ORDER_SENSITIVE_CONSUMERS and node.args and is_set_ref(node.args[0]):
                yield node.args[0], message(node.args[0])


def check_ordered_iteration(module: Module) -> Iterator[Finding]:
    if not module.deterministic:
        return
    names, attrs = _collect_set_symbols(module.tree)
    for node, message in iter_unordered_iteration_atoms(module.tree, names, attrs):
        yield Finding(
            "ordered-iteration", module.display, node.lineno, node.col_offset, message
        )


# --------------------------------------------------------------------------
# Rule: memo-purity
# --------------------------------------------------------------------------


def _is_memo_ref(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return "memo" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "memo" in node.attr.lower()
    return False


def _touches_memo_table(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and _is_memo_ref(node.value):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "setdefault", "pop")
            and _is_memo_ref(node.func.value)
        ):
            return True
    return False


def iter_impurity_atoms(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Simulated-clock / RNG reads in ``tree`` as (node, message) atoms.

    These are the sources of the linter's intra-function ``memo-purity`` rule
    and of the flow engine's transitive ``memo-taint`` analysis: values that
    are deterministic per run but *replica- or time-dependent*, so they must
    never feed a deployment-shared memo or stash.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if chain is None:
                continue
            if node.attr == "now" and any(part in ("sim", "_sim") for part in chain[:-1]):
                yield node, "reads the simulated clock (sim.now)"
            elif node.attr in ("rng", "_rng"):
                yield node, "reads an RNG; memo keys must be pure"
            elif chain[0] == "random" and len(chain) == 2 and node.attr != "Random":
                yield node, f"draws from module-level random.{node.attr}"
            elif chain[0] == "time" and node.attr in _TIME_FORBIDDEN:
                yield node, f"reads wall clock time.{node.attr}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if isinstance(receiver, ast.Name) and receiver.id in ("rng", "_rng"):
                yield node, "draws from an RNG; memo keys must be pure"
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            impure = [name for name in node.names if "memo" not in name.lower()]
            if impure:
                yield node, (
                    f"rebinds {'/'.join(impure)} via "
                    f"{'global' if isinstance(node, ast.Global) else 'nonlocal'}; "
                    "mutable non-memo state breaks purity"
                )


def check_memo_purity(module: Module) -> Iterator[Finding]:
    if not module.deterministic:
        return
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _touches_memo_table(func):
            continue
        for node, message in iter_impurity_atoms(func):
            yield Finding(
                "memo-purity",
                module.display,
                node.lineno,
                node.col_offset,
                f"memoized function {func.name} {message}",
            )


# --------------------------------------------------------------------------
# Rule: dispatch-complete (project-wide)
# --------------------------------------------------------------------------

#: Messages dispatched by the *client* (``core/client.py``), never by replicas.
CLIENT_BOUND_MESSAGES = frozenset({"ExecuteAck", "ClientReply"})


def _message_classes(module: Module) -> Set[str]:
    found: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "msg_type" for t in stmt.targets
                ):
                    found.add(node.name)
    return found


def _class_def(module: Module, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _table_keys(cls: ast.ClassDef, attr: str) -> Optional[Tuple[Set[str], int]]:
    """Keys of ``self.<attr> = {...}`` inside a class, or of the dict literal
    returned by the builder method the attribute is assigned from."""
    builder: Optional[str] = None
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and target.attr == attr
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if isinstance(node.value, ast.Dict):
                    return set(_dict_name_keys(node.value)), node.value.lineno
                if isinstance(node.value, ast.Call):
                    chain = _attr_chain(node.value.func)
                    if chain:
                        builder = chain[-1]
    if builder is not None:
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef) and node.name == builder:
                for stmt in ast.walk(node):
                    if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Dict):
                        return set(_dict_name_keys(stmt.value)), stmt.value.lineno
    return None


#: Heal must undo what slow/partition/isolate did.  Marker = an attribute the
#: ``_heal`` method must assign (slow) or a method it must call (network kinds).
_HEAL_UNDO_MARKERS = {
    "slow": ("assign", "speed_factor"),
    "partition": ("call", "set_link_up"),
    "isolate": ("call", "reconnect"),
}


def _string_tuple_assign(tree: ast.Module, name: str) -> Optional[Tuple[Tuple[str, ...], int]]:
    """Module-level ``NAME = ("a", "b", ...)`` -> (strings, lineno)."""
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and target.id == name):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            values = []
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    values.append(elt.value)
            return tuple(values), node.lineno
    return None


def _kind_branches(func: ast.FunctionDef) -> Set[str]:
    """Fault-kind strings compared against ``spec.kind`` anywhere in ``func``."""
    kinds: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if not any(
            isinstance(operand, ast.Attribute) and operand.attr == "kind"
            for operand in operands
        ):
            continue
        for operand in operands:
            if isinstance(operand, ast.Constant) and isinstance(operand.value, str):
                kinds.add(operand.value)
            elif isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
                for elt in operand.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        kinds.add(elt.value)
    return kinds


def _heal_markers(func: ast.FunctionDef) -> Tuple[Set[str], Set[str]]:
    """-> (attribute names assigned, method names called) inside ``func``."""
    assigned: Set[str] = set()
    called: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    assigned.add(target.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            assigned.add(node.target.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return assigned, called


def _check_fault_dispatch(module: Module) -> Iterator[Finding]:
    """Every ``FAULT_KINDS`` entry needs an ``_activate`` branch + heal undo.

    Applies to any module that declares a module-level ``FAULT_KINDS`` string
    tuple and an injector class with an ``_activate`` method (the real
    injector in ``repro/sim/faults.py``, or a planted fixture).
    """
    kinds_assign = _string_tuple_assign(module.tree, "FAULT_KINDS")
    if kinds_assign is None:
        return
    fault_kinds, kinds_line = kinds_assign
    for cls in module.tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        activate = next(
            (
                stmt
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "_activate"
            ),
            None,
        )
        if activate is None:
            continue
        handled = _kind_branches(activate)
        for missing in sorted(set(fault_kinds) - handled):
            yield Finding(
                "dispatch-complete",
                module.display,
                activate.lineno,
                activate.col_offset,
                f"fault kind '{missing}' from FAULT_KINDS has no apply branch "
                f"in {cls.name}._activate",
            )
        healable = [kind for kind in fault_kinds if kind in _HEAL_UNDO_MARKERS]
        if not healable:
            continue
        heal = next(
            (
                stmt
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "_heal"
            ),
            None,
        )
        if heal is None:
            yield Finding(
                "dispatch-complete",
                module.display,
                kinds_line,
                0,
                f"{cls.name} has healable fault kinds "
                f"({', '.join(sorted(healable))}) but no _heal method",
            )
            continue
        assigned, called = _heal_markers(heal)
        for kind in sorted(healable):
            marker_kind, marker = _HEAL_UNDO_MARKERS[kind]
            present = marker in (assigned if marker_kind == "assign" else called)
            if not present:
                verb = "assign attribute" if marker_kind == "assign" else "call"
                yield Finding(
                    "dispatch-complete",
                    module.display,
                    heal.lineno,
                    heal.col_offset,
                    f"fault kind '{kind}' has no heal counterpart: "
                    f"{cls.name}._heal must {verb} '{marker}' to undo it",
                )


def _check_strategy_registry(module: Module) -> Iterator[Finding]:
    """``STRATEGY_KINDS``, the ``STRATEGIES`` registry and the strategy
    classes' ``KIND`` attributes must agree.

    Applies to any module declaring both a module-level ``STRATEGY_KINDS``
    string tuple and a ``STRATEGIES`` dict literal (the real registry in
    ``repro/adversary/strategies.py``, or a planted fixture).  A kind that
    falls out of the registry silently falls out of the search space, which
    is exactly the quiet coverage loss this rule exists to catch.
    """
    kinds_assign = _string_tuple_assign(module.tree, "STRATEGY_KINDS")
    if kinds_assign is None:
        return
    kinds, kinds_line = kinds_assign

    registry: Optional[Tuple[Set[str], int]] = None
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "STRATEGIES" for t in targets):
            continue
        if isinstance(value, ast.Dict):
            registry = ({key for key, _ in _dict_str_keys(value)}, value.lineno)
    if registry is None:
        yield Finding(
            "dispatch-complete",
            module.display,
            kinds_line,
            0,
            "STRATEGY_KINDS is declared but no STRATEGIES dict literal "
            "registers the strategy classes",
        )
        return
    registered, registry_line = registry

    for missing in sorted(set(kinds) - registered):
        yield Finding(
            "dispatch-complete",
            module.display,
            registry_line,
            0,
            f"strategy kind '{missing}' from STRATEGY_KINDS is not registered "
            "in STRATEGIES (it would silently drop out of the search space)",
        )
    for extra in sorted(registered - set(kinds)):
        yield Finding(
            "dispatch-complete",
            module.display,
            kinds_line,
            0,
            f"STRATEGIES registers '{extra}' but STRATEGY_KINDS does not list "
            "it (catalog and registry disagree)",
        )

    # Every concrete strategy class (a KIND other than the abstract base's)
    # must be reachable through the registry.
    for cls in module.tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "KIND"
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
                and stmt.value.value != "abstract"
                and stmt.value.value not in registered
            ):
                yield Finding(
                    "dispatch-complete",
                    module.display,
                    stmt.lineno,
                    stmt.col_offset,
                    f"strategy class {cls.name} declares KIND "
                    f"'{stmt.value.value}' but is not registered in STRATEGIES",
                )


_REPLICA_SPECS = (
    {
        "class": "SBFTReplica",
        "replica": "repro/core/replica.py",
        "messages": ("repro/core/messages.py",),
        "imported_from": (),
    },
    {
        "class": "PBFTReplica",
        "replica": "repro/pbft/replica.py",
        "messages": ("repro/pbft/messages.py",),
        "imported_from": ("repro.core.messages",),
    },
)


def check_dispatch_complete(modules: Sequence[Module]) -> Iterator[Finding]:
    for module in modules:
        yield from _check_fault_dispatch(module)
        yield from _check_strategy_registry(module)

    by_suffix: Dict[str, Module] = {}
    for module in modules:
        for suffix in (
            "repro/core/messages.py",
            "repro/pbft/messages.py",
            "repro/core/replica.py",
            "repro/pbft/replica.py",
        ):
            if module.suffix_is(suffix):
                by_suffix[suffix] = module

    for spec in _REPLICA_SPECS:
        replica_module = by_suffix.get(spec["replica"])
        message_modules = [by_suffix[s] for s in spec["messages"] if s in by_suffix]
        if replica_module is None or not message_modules:
            continue  # partial tree (e.g. linting a single file); nothing to check

        required: Set[str] = set()
        for message_module in message_modules:
            required |= _message_classes(message_module)
        # Messages the replica imports from other message modules (PBFT reuses
        # the SBFT ClientRequest/PrePrepare/state-transfer messages).
        for origin in spec["imported_from"]:
            origin_module = by_suffix.get(origin.replace(".", "/") + ".py")
            if origin_module is None:
                continue
            origin_messages = _message_classes(origin_module)
            for node in ast.walk(replica_module.tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "") == origin:
                    for alias in node.names:
                        if alias.name in origin_messages:
                            required.add(alias.name)
        required -= CLIENT_BOUND_MESSAGES

        cls = _class_def(replica_module, spec["class"])
        if cls is None:
            yield Finding(
                "dispatch-complete",
                replica_module.display,
                1,
                0,
                f"expected class {spec['class']} in {spec['replica']}",
            )
            continue
        for attr in ("_handlers", "_cost_table"):
            table = _table_keys(cls, attr)
            if table is None:
                yield Finding(
                    "dispatch-complete",
                    replica_module.display,
                    cls.lineno,
                    cls.col_offset,
                    f"{spec['class']} has no literal {attr} table",
                )
                continue
            keys, lineno = table
            for missing in sorted(required - keys):
                yield Finding(
                    "dispatch-complete",
                    replica_module.display,
                    lineno,
                    0,
                    f"message class {missing} is not registered in {spec['class']}.{attr}",
                )


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

MODULE_RULES = {
    "no-wall-clock": check_no_wall_clock,
    "ordered-iteration": check_ordered_iteration,
    "memo-purity": check_memo_purity,
}
PROJECT_RULES = {
    "dispatch-complete": check_dispatch_complete,
}
#: ``stale-suppression`` is a meta rule over the other rules' results, so it
#: lives in neither table; it is enabled by default like every other rule.
ALL_RULES = tuple(sorted(list(MODULE_RULES) + list(PROJECT_RULES) + ["stale-suppression"]))


def stale_suppression_findings(
    modules: Sequence[Module],
    raw_findings: Sequence[Finding],
    enabled: Set[str],
    known_rules: Iterable[str],
) -> List[Finding]:
    """Allow comments naming an enabled rule that did not fire on that line.

    Shared with :mod:`repro.analysis.flow`: each tool checks only the rule
    ids it owns (``known_rules``), so a lint run never flags a flow-analysis
    suppression as stale and vice versa.
    """
    fired = {(finding.path, finding.line, finding.rule) for finding in raw_findings}
    checkable = set(known_rules) & enabled - {"stale-suppression"}
    stale: List[Finding] = []
    for module in modules:
        for line, allowed in sorted(module.allows.items()):
            for rule in sorted(allowed & checkable):
                if (module.display, line, rule) not in fired:
                    stale.append(
                        Finding(
                            "stale-suppression",
                            module.display,
                            line,
                            0,
                            f"suppression 'repro: allow[{rule}]' is stale: "
                            f"rule {rule} no longer fires on this line",
                        )
                    )
    return stale


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Iterable[str]] = None,
    exclude: Sequence[Path] = (),
) -> Tuple[List[Finding], int]:
    """Lint ``paths`` -> (unsuppressed findings, suppressed count)."""
    enabled = set(rules) if rules is not None else set(ALL_RULES)
    unknown = enabled - set(ALL_RULES)
    if unknown:
        raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")

    modules, findings = load_modules(paths, exclude)
    for name in sorted(MODULE_RULES):
        if name not in enabled:
            continue
        for module in modules:
            findings.extend(MODULE_RULES[name](module))
    for name in sorted(PROJECT_RULES):
        if name in enabled:
            findings.extend(PROJECT_RULES[name](modules))
    if "stale-suppression" in enabled:
        findings.extend(
            stale_suppression_findings(
                modules, findings, enabled, list(MODULE_RULES) + list(PROJECT_RULES)
            )
        )

    allow_tables = {module.display: module.allows for module in modules}
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        allowed = allow_tables.get(finding.path, {}).get(finding.line, set())
        if finding.rule in allowed:
            suppressed += 1
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    sources: Dict[str, Sequence[str]] = {
        module.display: module.source.splitlines() for module in modules
    }
    return assign_finding_ids(kept, sources), suppressed


def report_json(findings: Sequence[Finding], suppressed: int) -> str:
    return json.dumps(
        {
            "findings": [asdict(f) for f in findings],
            "suppressed": suppressed,
            "stale_suppressions": sum(
                1 for finding in findings if finding.rule == "stale-suppression"
            ),
            "rules": list(ALL_RULES),
        },
        indent=2,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Protocol-invariant linter for the SBFT reproduction.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories to lint")
    parser.add_argument(
        "--rules", help="comma-separated rule ids to run (default: all)", default=None
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="FILE",
        help="write a machine-readable report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="DIR",
        help="directory prefix to skip (repeatable); e.g. tests/fixtures/lint",
    )
    parser.add_argument("--list-rules", action="store_true", help="list rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(rule)
        return 0

    rules = None
    if args.rules:
        rules = [part.strip() for part in args.rules.split(",") if part.strip()]
    try:
        findings, suppressed = run_lint(
            [Path(p) for p in args.paths], rules, exclude=[Path(p) for p in args.exclude]
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json_path:
        payload = report_json(findings, suppressed)
        if args.json_path == "-":
            print(payload)
        else:
            Path(args.json_path).write_text(payload + "\n", encoding="utf-8")
    for finding in findings:
        print(finding.render())
    summary = f"{len(findings)} finding(s), {suppressed} suppressed"
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
