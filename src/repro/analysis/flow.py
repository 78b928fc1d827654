"""Interprocedural determinism-taint and shared-state escape analysis.

Run as ``python -m repro.analysis.flow [paths...]``.  Where
:mod:`repro.analysis.lint` checks single functions syntactically, this engine
builds a whole-program call graph and answers the two questions the
fixed-seed byte-identity invariant (and the planned worker-process
parallelism, ROADMAP item 3(b)) depend on:

1. **Can a protocol decision transitively observe nondeterminism?**
   A nondeterminism source laundered through one helper call — a wall-clock
   read two hops below a message handler, a dict built from a set in a
   crypto helper — is invisible to the per-function linter.  The taint
   analyses propagate the linter's atomic facts through the call graph to
   the protocol sinks.

2. **Is what replicas share written safely?**
   No module holds a table filled at run time
   (``tests/test_replica_runtime.py`` pins that structurally), so what the
   replicas of a run share rides on objects they are all handed — a frozen
   message, the block's operations, a proof, the per-run threshold scheme —
   and a write in protocol code falls into one of two state classes (the
   escape checker's taxonomy):

   * *replica-local* — ordinary ``self`` state of a process; unchecked.
   * *shared stash* — a write to a frozen object's pre-declared
     ``init=False`` slot via ``object.__setattr__``, or a store into a
     memo/cache entry.  A slot write must happen at construction time
     (``__post_init__``, or on a local the same function just built with a
     constructor call and has not used yet) or follow the stash-if-absent
     idiom (read, miss-test, write), and must never be conditional on state
     outside the guard; a stored value must not alias mutable state.

Analyses (finding ``analysis`` ids):

``nondeterministic-taint``
    A protocol sink (replica/client message handler, ``execute_block``,
    batching policy hook, fault injection) transitively reaches an ambient
    time/entropy read or an unordered-iteration expression.  Intra-function
    atoms are the linter's job (``no-wall-clock``/``ordered-iteration``);
    this analysis reports only *transitive* chains (two or more functions).
``memo-taint``
    A function that reads/writes a memo, cache, or message stash
    transitively reaches ``sim.now``, an RNG, or a wall clock — the
    transitive closure of the linter's intra-function ``memo-purity``.
``stash-discipline``
    An ``object.__setattr__`` stash write outside construction that targets
    an undeclared slot, lacks the stash-if-absent guard, or executes under a
    condition unrelated to the guard (e.g. a handler stashing only when it
    is the primary: replicas would then disagree about the shared object).
``shared-alias``
    A memo/stash/cache entry whose stored value aliases mutable state — a
    mutable ``self`` attribute stored without copying, or a locally-built
    mutable container that is both stored in the shared entry and returned
    to the caller (any consumer mutation then corrupts every other
    replica's view of the entry).
``stale-suppression``
    A ``# repro: allow[<analysis>]`` comment naming a flow analysis that no
    longer fires on that line, or a rule id unknown to both tools.

Findings carry the full call/alias chain (``--explain <finding-id>`` prints
it hop by hop) and a content-derived id, so ``--json`` artifacts diff
cleanly and ``--baseline FILE`` supports incremental adoption.  Suppression
uses the linter's per-line ``# repro: allow[<analysis>]`` comments.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import (
    ALL_RULES as LINT_RULES,
    Module,
    _attr_chain,
    _call_name,
    _collect_set_symbols,
    content_finding_id,
    iter_impurity_atoms,
    iter_unordered_iteration_atoms,
    iter_wall_clock_atoms,
    load_modules,
)

FLOW_ANALYSES = (
    "memo-taint",
    "nondeterministic-taint",
    "shared-alias",
    "stale-suppression",
    "stash-discipline",
)

#: Attribute names parsed as type-keyed dispatch tables (call-graph edges).
DISPATCH_TABLE_ATTRS = ("_handlers", "_cost_table")

#: Method names that are protocol sinks wherever they appear, mapped to the
#: sink-kind label used in finding messages.
SINK_METHOD_KINDS = {
    "on_message": "message dispatch",
    "execute_block": "service execution",
    "batch_threshold": "batching policy",
    "batch_take": "batching policy",
}

#: Callables that produce a fresh (or immutable) copy of their argument —
#: wrapping a mutable value in one of these breaks the alias.
_COPYING_CALLS = frozenset(
    {"tuple", "frozenset", "list", "dict", "set", "sorted", "copy", "deepcopy", "bytes", "str"}
)

_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


@dataclass(frozen=True)
class FlowFinding:
    """One flow finding; ``chain`` is the full call/alias chain, sink first."""

    analysis: str
    path: str
    line: int
    col: int
    message: str
    chain: Tuple[str, ...] = ()
    id: str = ""

    def render(self) -> str:
        suffix = f" [{self.id}]" if self.id else ""
        return f"{self.path}:{self.line}:{self.col}: {self.analysis}: {self.message}{suffix}"


# --------------------------------------------------------------------------
# Program index: modules, classes, functions
# --------------------------------------------------------------------------


def _module_name(path: Path) -> str:
    """Dotted module name; files outside a ``repro`` tree use their stem."""
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[index:])
    return parts[-1] if parts else "<unknown>"


class FunctionInfo:
    """One analyzed function/method and its lazily-computed atoms."""

    __slots__ = ("qualname", "module", "node", "class_name", "_atoms")

    def __init__(
        self, qualname: str, module: Module, node: ast.FunctionDef, class_name: Optional[str]
    ):
        self.qualname = qualname
        self.module = module
        self.node = node
        self.class_name = class_name
        self._atoms: Dict[str, List[Tuple[ast.AST, str]]] = {}

    @property
    def name(self) -> str:
        return self.node.name

    def atoms(self, kind: str) -> List[Tuple[ast.AST, str]]:
        cached = self._atoms.get(kind)
        if cached is not None:
            return cached
        if kind == "wall":
            found = list(iter_wall_clock_atoms(self.node))
        elif kind == "unordered":
            names, attrs = _collect_set_symbols(self.module.tree)
            found = list(iter_unordered_iteration_atoms(self.node, names, attrs))
        elif kind == "impure":
            found = list(iter_impurity_atoms(self.node))
        else:  # pragma: no cover - internal misuse
            raise ValueError(kind)
        self._atoms[kind] = found
        return found


class ClassInfo:
    """One analyzed class: methods, attribute types, dispatch tables."""

    __slots__ = (
        "name",
        "qualname",
        "module",
        "node",
        "bases",
        "methods",
        "attr_types",
        "mutable_attrs",
        "dispatch_values",
        "stash_fields",
    )

    def __init__(self, name: str, qualname: str, module: Module, node: ast.ClassDef):
        self.name = name
        self.qualname = qualname
        self.module = module
        self.node = node
        self.bases: List[str] = []
        for base in node.bases:
            chain = _attr_chain(base)
            if chain:
                self.bases.append(chain[-1])
        self.methods: Dict[str, FunctionInfo] = {}
        self.attr_types: Dict[str, str] = {}
        self.mutable_attrs: Set[str] = set()
        self.dispatch_values: Dict[str, List[str]] = {}
        self.stash_fields: Set[str] = set()
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            value = stmt.value
            if (
                isinstance(value, ast.Call)
                and _call_name(value) == "field"
                and any(
                    kw.arg == "init"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in value.keywords
                )
            ):
                self.stash_fields.add(stmt.target.id)


def _annotation_class(annotation: Optional[ast.AST]) -> Optional[str]:
    """The class name an annotation denotes, conservatively.

    Plain names resolve directly; ``Optional[X]``/``"X"`` resolve to ``X``;
    container annotations (``Dict[...]``, ``List[...]``) resolve to nothing —
    calling a method on the container is not calling it on the element.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        chain = _attr_chain(annotation)
        return chain[-1] if chain else None
    if isinstance(annotation, ast.Subscript):
        chain = _attr_chain(annotation.value)
        if chain and chain[-1] == "Optional":
            return _annotation_class(annotation.slice)
    return None


class Program:
    """The whole-program index and call graph over a set of modules."""

    def __init__(self, modules: Sequence[Module]):
        self.modules = list(modules)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}  # by simple name (last wins alphabetically stable)
        self.module_functions: Dict[str, Dict[str, FunctionInfo]] = {}
        self.module_classes: Dict[str, Dict[str, ClassInfo]] = {}
        self.module_imports: Dict[str, Dict[str, str]] = {}  # alias -> module or "mod:symbol"
        self.module_names: Dict[str, Module] = {}
        self._index()
        self.subclasses = self._subclass_map()
        self.edges = self._call_edges()
        self.callers = self._reverse_edges()
        self.construction_only = self._construction_only()
        self.stash_field_names = set().union(
            *(c.stash_fields for c in self.classes.values()), set()
        )

    # -- indexing ----------------------------------------------------------

    def _index(self) -> None:
        for module in self.modules:
            mod_name = _module_name(module.path)
            self.module_names[mod_name] = module
            funcs: Dict[str, FunctionInfo] = {}
            classes: Dict[str, ClassInfo] = {}
            imports: Dict[str, str] = {}
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = FunctionInfo(f"{mod_name}.{node.name}", module, node, None)
                    funcs[node.name] = info
                    self.functions[info.qualname] = info
                elif isinstance(node, ast.ClassDef):
                    cls = ClassInfo(node.name, f"{mod_name}.{node.name}", module, node)
                    classes[node.name] = cls
                    self.classes.setdefault(node.name, cls)
                    for stmt in node.body:
                        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            info = FunctionInfo(
                                f"{mod_name}.{node.name}.{stmt.name}", module, stmt, node.name
                            )
                            cls.methods[stmt.name] = info
                            self.functions[info.qualname] = info
                        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                            klass = _annotation_class(stmt.annotation)
                            if klass:
                                cls.attr_types.setdefault(stmt.target.id, klass)
                    self._scan_init(cls)
                    self._scan_dispatch_tables(cls)
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        imports[alias.asname or alias.name.split(".")[0]] = alias.name
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    for alias in node.names:
                        imports[alias.asname or alias.name] = f"{base}:{alias.name}"
            self.module_functions[mod_name] = funcs
            self.module_classes[mod_name] = classes
            self.module_imports[mod_name] = imports

    def _scan_init(self, cls: ClassInfo) -> None:
        """Record attribute types and mutable attributes from ``__init__``."""
        init = cls.methods.get("__init__")
        if init is None:
            return
        param_types: Dict[str, str] = {}
        for arg in init.node.args.args + init.node.args.kwonlyargs:
            klass = _annotation_class(arg.annotation)
            if klass:
                param_types[arg.arg] = klass
        for node in ast.walk(init.node):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if isinstance(node, ast.AnnAssign):
                    klass = _annotation_class(node.annotation)
                    if klass:
                        cls.attr_types.setdefault(attr, klass)
                if isinstance(value, ast.Name) and value.id in param_types:
                    cls.attr_types.setdefault(attr, param_types[value.id])
                elif isinstance(value, ast.Call):
                    name = _call_name(value)
                    if name and name[0].isupper():
                        cls.attr_types.setdefault(attr, name)
                    if name in _MUTABLE_CONSTRUCTORS:
                        cls.mutable_attrs.add(attr)
                if isinstance(
                    value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
                ):
                    cls.mutable_attrs.add(attr)

    def _scan_dispatch_tables(self, cls: ClassInfo) -> None:
        """Values of ``self._handlers`` / ``self._cost_table`` dict literals."""
        builders: Dict[str, str] = {}
        for node in ast.walk(cls.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and target.attr in DISPATCH_TABLE_ATTRS
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if isinstance(node.value, ast.Dict):
                self._record_table_values(cls, target.attr, node.value)
            elif isinstance(node.value, ast.Call):
                chain = _attr_chain(node.value.func)
                if chain:
                    builders[target.attr] = chain[-1]
        for attr, builder in builders.items():
            method = cls.methods.get(builder)
            if method is None:
                continue
            for stmt in ast.walk(method.node):
                if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Dict):
                    self._record_table_values(cls, attr, stmt.value)

    def _record_table_values(self, cls: ClassInfo, attr: str, table: ast.Dict) -> None:
        methods: List[str] = []
        for value in table.values:
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                methods.append(value.attr)
            else:
                for sub in ast.walk(value):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == "self"
                    ):
                        methods.append(sub.func.attr)
        self.dispatch_values_for(cls).setdefault(attr, []).extend(methods)

    @staticmethod
    def dispatch_values_for(cls: ClassInfo) -> Dict[str, List[str]]:
        return cls.dispatch_values

    def _subclass_map(self) -> Dict[str, List[ClassInfo]]:
        """Class name -> transitive subclasses (by simple base names)."""
        direct: Dict[str, List[ClassInfo]] = {}
        for classes in self.module_classes.values():
            for cls in classes.values():
                for base in cls.bases:
                    direct.setdefault(base, []).append(cls)
        result: Dict[str, List[ClassInfo]] = {}
        for name in direct:
            seen: Dict[str, ClassInfo] = {}
            queue = list(direct.get(name, ()))
            while queue:
                cls = queue.pop()
                if cls.name in seen:
                    continue
                seen[cls.name] = cls
                queue.extend(direct.get(cls.name, ()))
            result[name] = [seen[key] for key in sorted(seen)]
        return result

    # -- method resolution -------------------------------------------------

    def class_and_supers(self, name: str) -> Iterator[ClassInfo]:
        seen: Set[str] = set()
        queue = [name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            yield cls
            queue.extend(cls.bases)

    def resolve_method(
        self, class_name: str, method: str, virtual: bool = True
    ) -> List[FunctionInfo]:
        """Implementations of ``method`` on ``class_name`` (and overrides)."""
        found: Dict[str, FunctionInfo] = {}
        for cls in self.class_and_supers(class_name):
            if method in cls.methods:
                found.setdefault(cls.methods[method].qualname, cls.methods[method])
                break
        if virtual:
            for sub in self.subclasses.get(class_name, ()):
                if method in sub.methods:
                    found.setdefault(sub.methods[method].qualname, sub.methods[method])
        return [found[key] for key in sorted(found)]

    def methods_named(self, method: str) -> List[FunctionInfo]:
        """CHA fallback: every known implementation of ``method``."""
        found: Dict[str, FunctionInfo] = {}
        for classes in self.module_classes.values():
            for cls in classes.values():
                if method in cls.methods:
                    found.setdefault(cls.methods[method].qualname, cls.methods[method])
        return [found[key] for key in sorted(found)]

    def _imported_function(self, mod_name: str, alias: str) -> List[FunctionInfo]:
        """Functions/classes an imported name resolves to (constructor -> init)."""
        target = self.module_imports.get(mod_name, {}).get(alias)
        if target is None:
            return []
        if ":" in target:
            origin, symbol = target.split(":", 1)
            origin = self._match_module(origin)
            if origin is None:
                return []
            func = self.module_functions.get(origin, {}).get(symbol)
            if func is not None:
                return [func]
            cls = self.module_classes.get(origin, {}).get(symbol)
            if cls is not None:
                return self._constructor_targets(cls)
        return []

    def _match_module(self, dotted: str) -> Optional[str]:
        """Match an import's dotted path against indexed module names."""
        if dotted in self.module_names:
            return dotted
        # Fixtures import each other by bare name while indexed under stems;
        # repro modules always match exactly or by trailing components.
        for candidate in sorted(self.module_names):
            if candidate.endswith("." + dotted) or dotted.endswith("." + candidate):
                return candidate
        tail = dotted.split(".")[-1]
        return tail if tail in self.module_names else None

    def _constructor_targets(self, cls: ClassInfo) -> List[FunctionInfo]:
        targets = []
        for name in ("__init__", "__post_init__"):
            for owner in self.class_and_supers(cls.name):
                if name in owner.methods:
                    targets.append(owner.methods[name])
                    break
        return targets

    def _local_types(self, func: FunctionInfo) -> Dict[str, str]:
        """Parameter/local variable -> class name, from annotations and ctors."""
        types: Dict[str, str] = {}
        args = func.node.args
        for arg in args.args + args.kwonlyargs + args.posonlyargs:
            klass = _annotation_class(arg.annotation)
            if klass and klass in self.classes:
                types[arg.arg] = klass

        def value_class(value: Optional[ast.AST]) -> Optional[str]:
            if isinstance(value, ast.Call):
                name = _call_name(value)
                if name and name in self.classes:
                    return name
            elif isinstance(value, ast.Name):
                return types.get(value.id)
            elif isinstance(value, ast.IfExp):
                # ``vm = evm if evm is not None else EVM(state)`` resolves
                # when both branches denote the same class.
                body, orelse = value_class(value.body), value_class(value.orelse)
                if body is not None and body == orelse:
                    return body
            return None

        for node in ast.walk(func.node):
            target: Optional[ast.Name] = None
            value: Optional[ast.AST] = None
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                target, value = node.target, node.value
                klass = _annotation_class(node.annotation)
                if klass and klass in self.classes:
                    types.setdefault(target.id, klass)
            if target is None:
                continue
            klass = value_class(value)
            if klass is not None:
                types.setdefault(target.id, klass)
        return types

    def expr_class(
        self, expr: ast.AST, func: FunctionInfo, local_types: Dict[str, str], depth: int = 0
    ) -> Optional[str]:
        """The class an expression statically denotes, or None."""
        if depth > 4:
            return None
        if isinstance(expr, ast.Name):
            if expr.id == "self" and func.class_name:
                return func.class_name
            return local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.expr_class(expr.value, func, local_types, depth + 1)
            if base is None:
                return None
            for cls in self.class_and_supers(base):
                if expr.attr in cls.attr_types:
                    return cls.attr_types[expr.attr]
            return None
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name and name in self.classes:
                return name
        return None

    # -- call graph --------------------------------------------------------

    def _callees(self, func: FunctionInfo) -> Set[str]:
        callees: Set[str] = set()
        mod_name = _module_name(func.module.path)
        local_funcs = self.module_functions.get(mod_name, {})
        local_classes = self.module_classes.get(mod_name, {})
        local_types = self._local_types(func)
        cls = self.classes.get(func.class_name) if func.class_name else None

        def add(infos: Iterable[FunctionInfo]) -> None:
            for info in infos:
                callees.add(info.qualname)

        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                target = node.func
                if isinstance(target, ast.Name):
                    name = target.id
                    if name in local_funcs:
                        add([local_funcs[name]])
                    elif name in local_classes:
                        add(self._constructor_targets(local_classes[name]))
                    else:
                        add(self._imported_function(mod_name, name))
                elif isinstance(target, ast.Attribute):
                    method = target.attr
                    receiver = target.value
                    # ``module.func(...)`` via a plain import.
                    chain = _attr_chain(receiver)
                    resolved = False
                    if (
                        chain is not None
                        and len(chain) == 1
                        and chain[0] in self.module_imports.get(mod_name, {})
                    ):
                        imported = self.module_imports[mod_name][chain[0]]
                        if ":" not in imported:
                            origin = self._match_module(imported)
                            if origin is not None:
                                info = self.module_functions.get(origin, {}).get(method)
                                origin_classes = self.module_classes.get(origin, {})
                                if info is not None:
                                    add([info])
                                    resolved = True
                                elif method in origin_classes:
                                    add(self._constructor_targets(origin_classes[method]))
                                    resolved = True
                    if not resolved:
                        klass = self.expr_class(receiver, func, local_types)
                        if klass is not None:
                            targets = self.resolve_method(klass, method)
                            if targets:
                                add(targets)
                                resolved = True
                    if not resolved:
                        # CHA fallback: an untyped receiver may be any class
                        # defining the method (how ``service.execution_cost``
                        # resolves through the untyped stash helpers).
                        add(self.methods_named(method))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                # Dispatch-table loads: the function consults the table, so
                # every registered handler is a potential callee.
                if (
                    cls is not None
                    and node.attr in DISPATCH_TABLE_ATTRS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    for method in cls.dispatch_values.get(node.attr, ()):
                        add(self.resolve_method(cls.name, method, virtual=False))
        callees.discard(func.qualname)
        return callees

    def _call_edges(self) -> Dict[str, Set[str]]:
        return {qualname: self._callees(info) for qualname, info in sorted(self.functions.items())}

    def _reverse_edges(self) -> Dict[str, Set[str]]:
        callers: Dict[str, Set[str]] = {qualname: set() for qualname in self.functions}
        for source, targets in self.edges.items():
            for target in targets:
                callers.setdefault(target, set()).add(source)
        return callers

    def _construction_only(self) -> Set[str]:
        """Functions reachable *only* from ``__post_init__`` construction."""
        result: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for qualname, info in self.functions.items():
                if qualname in result or info.name == "__post_init__":
                    continue
                callers = self.callers.get(qualname, set())
                if not callers:
                    continue
                if all(
                    self.functions[c].name == "__post_init__" or c in result
                    for c in sorted(callers)
                ):
                    result.add(qualname)
                    changed = True
        return result

    # -- sinks -------------------------------------------------------------

    def protocol_sinks(self) -> List[Tuple[FunctionInfo, str]]:
        """(function, sink-kind) for every protocol sink in the program."""
        sinks: Dict[str, Tuple[FunctionInfo, str]] = {}
        for classes in self.module_classes.values():
            for cls in sorted(classes.values(), key=lambda c: c.qualname):
                for attr, methods in sorted(cls.dispatch_values.items()):
                    if attr != "_handlers":
                        continue
                    for method in methods:
                        for info in self.resolve_method(cls.name, method, virtual=False):
                            sinks.setdefault(info.qualname, (info, "message handler"))
                for method, kind in SINK_METHOD_KINDS.items():
                    if method in cls.methods:
                        sinks.setdefault(cls.methods[method].qualname, (cls.methods[method], kind))
                if "_activate" in cls.methods:
                    for name in ("apply", "_activate"):
                        if name in cls.methods:
                            sinks.setdefault(
                                cls.methods[name].qualname, (cls.methods[name], "fault injection")
                            )
        return [sinks[key] for key in sorted(sinks)]


# --------------------------------------------------------------------------
# Chain utilities
# --------------------------------------------------------------------------


def _hop(info: FunctionInfo) -> str:
    return f"{info.qualname} [{info.module.display}:{info.node.lineno}]"


def _shortest_chains(
    program: Program, roots: Sequence[str]
) -> Tuple[Dict[str, int], Dict[str, Optional[str]], Dict[str, str]]:
    """Multi-source BFS over call edges -> (distance, parent, root-of)."""
    distance: Dict[str, int] = {}
    parent: Dict[str, Optional[str]] = {}
    origin: Dict[str, str] = {}
    queue: deque = deque()
    for root in sorted(roots):
        if root in distance:
            continue
        distance[root] = 0
        parent[root] = None
        origin[root] = root
        queue.append(root)
    while queue:
        current = queue.popleft()
        for callee in sorted(program.edges.get(current, ())):
            if callee in distance:
                continue
            distance[callee] = distance[current] + 1
            parent[callee] = current
            origin[callee] = origin[current]
            queue.append(callee)
    return distance, parent, origin


def _chain_to(program: Program, parent: Dict[str, Optional[str]], qualname: str) -> List[str]:
    """Root-to-``qualname`` hop list from BFS parent pointers."""
    hops: List[str] = []
    cursor: Optional[str] = qualname
    while cursor is not None:
        hops.append(_hop(program.functions[cursor]))
        cursor = parent.get(cursor)
    return hops[::-1]


# --------------------------------------------------------------------------
# Taint analyses
# --------------------------------------------------------------------------


def check_nondeterministic_taint(program: Program) -> Iterator[FlowFinding]:
    sinks = program.protocol_sinks()
    sink_kinds = {info.qualname: kind for info, kind in sinks}
    distance, parent, origin = _shortest_chains(program, [info.qualname for info, _ in sinks])
    for qualname in sorted(distance):
        if distance[qualname] == 0:
            # Intra-sink atoms are the linter's job (no-wall-clock /
            # ordered-iteration); only *transitive* chains are news.
            continue
        info = program.functions[qualname]
        atoms = info.atoms("wall") + [
            atom for atom in info.atoms("unordered") if info.module.deterministic
        ]
        if not atoms:
            continue
        sink = origin[qualname]
        kind = sink_kinds[sink]
        hops = _chain_to(program, parent, qualname)
        for node, description in sorted(atoms, key=lambda a: (a[0].lineno, a[0].col_offset)):
            chain = tuple(hops + [f"source [{info.module.display}:{node.lineno}]: {description}"])
            yield FlowFinding(
                "nondeterministic-taint",
                info.module.display,
                node.lineno,
                node.col_offset,
                f"{kind} '{sink}' transitively reaches nondeterminism: "
                f"{info.qualname} {description} ({len(chain)}-hop chain)",
                chain,
            )


def _touches_shared_table(func: ast.AST) -> bool:
    """Like lint's memo-table check, extended to cache-named tables/modules."""

    def shared_ref(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            lowered = node.id.lower()
        elif isinstance(node, ast.Attribute):
            lowered = node.attr.lower()
        else:
            return False
        return "memo" in lowered or "cache" in lowered

    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and shared_ref(node.value):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "setdefault", "pop", "lookup", "store")
            and shared_ref(node.func.value)
        ):
            return True
    return False


def _stash_write_sites(func: FunctionInfo) -> List[ast.Call]:
    sites = []
    for node in ast.walk(func.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and len(node.args) == 3
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            sites.append(node)
    return sites


def _memo_sinks(program: Program) -> List[str]:
    """Functions whose results feed deployment-shared memos or stashes."""
    sinks = []
    for qualname, info in sorted(program.functions.items()):
        if not info.module.deterministic:
            continue
        if info.name in ("__post_init__",) or qualname in program.construction_only:
            continue
        if _touches_shared_table(info.node) or _stash_write_sites(info):
            sinks.append(qualname)
    return sinks


def check_memo_taint(program: Program) -> Iterator[FlowFinding]:
    roots = _memo_sinks(program)
    distance, parent, origin = _shortest_chains(program, roots)
    for qualname in sorted(distance):
        if distance[qualname] == 0:
            continue  # intra-function impurity is lint's memo-purity rule
        info = program.functions[qualname]
        atoms = info.atoms("impure") + info.atoms("wall")
        if not atoms:
            continue
        root = origin[qualname]
        hops = _chain_to(program, parent, qualname)
        seen_lines: Set[Tuple[int, int]] = set()
        for node, description in sorted(atoms, key=lambda a: (a[0].lineno, a[0].col_offset)):
            key = (node.lineno, node.col_offset)
            if key in seen_lines:
                continue  # wall atoms overlap impurity atoms; report once
            seen_lines.add(key)
            chain = tuple(hops + [f"source [{info.module.display}:{node.lineno}]: {description}"])
            yield FlowFinding(
                "memo-taint",
                info.module.display,
                node.lineno,
                node.col_offset,
                f"memo/stash function '{root}' transitively depends on impure state: "
                f"{info.qualname} {description} ({len(chain)}-hop chain)",
                chain,
            )


# --------------------------------------------------------------------------
# Escape checker: stash discipline
# --------------------------------------------------------------------------


def _enclosing_if_tests(func: ast.AST, target: ast.AST) -> List[ast.AST]:
    """Tests of every ``if`` statement lexically enclosing ``target``."""
    found: List[List[ast.AST]] = []

    def visit(node: ast.AST, stack: List[ast.AST]) -> None:
        if node is target:
            found.append(list(stack))
            return
        if isinstance(node, ast.If):
            for child in node.body + node.orelse:
                visit(child, stack + [node.test] if child in node.body else stack)
            visit(node.test, stack)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(func, [])
    return found[0] if found else []


def _guard_variables(func: ast.AST, stash_name: str) -> Set[str]:
    """Locals assigned from a stash/memo read (the stash-if-absent guard)."""

    def shared_ref(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            lowered = node.id.lower()
        elif isinstance(node, ast.Attribute):
            lowered = node.attr.lower()
        else:
            return False
        return "memo" in lowered or "cache" in lowered

    names: Set[str] = set()
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            continue
        target = node.targets[0].id
        value = node.value
        if isinstance(value, ast.Attribute) and value.attr == stash_name:
            names.add(target)
        elif isinstance(value, ast.Subscript) and shared_ref(value.value):
            names.add(target)
        elif isinstance(value, ast.Call):
            if (
                _call_name(value) == "getattr"
                and len(value.args) >= 2
                and isinstance(value.args[1], ast.Constant)
                and value.args[1].value == stash_name
            ):
                names.add(target)
            elif (
                isinstance(value.func, ast.Attribute)
                and value.func.attr in ("get", "setdefault", "pop")
                and shared_ref(value.func.value)
            ):
                names.add(target)
    return names


def _test_references(test: ast.AST, names: Set[str]) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id in names for sub in ast.walk(test))


def _fresh_locals(
    func: ast.AST, sites: List[ast.Call], program: Program
) -> Dict[str, Tuple[int, int]]:
    """Locals bound exactly once, directly to a constructor call of a program
    class, mapped to the source position of their first use other than as the
    target of a stash write (``sites``).  A stash write on such a local
    *before* that position is still construction: the object was built by
    this call of this function and nothing else has seen it yet, so not even
    a conditional write can disagree with another observer."""
    stores: Dict[str, int] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] = stores.get(node.id, 0) + 1
    never = (sys.maxsize, 0)
    fresh: Dict[str, Tuple[int, int]] = {}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and stores[node.targets[0].id] == 1
            and isinstance(node.value, ast.Call)
            and _call_name(node.value) in program.classes
        ):
            fresh[node.targets[0].id] = never
    write_targets = {id(site.args[0]) for site in sites}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in fresh
            and id(node) not in write_targets
        ):
            fresh[node.id] = min(fresh[node.id], (node.lineno, node.col_offset))
    return fresh


def check_stash_discipline(program: Program) -> Iterator[FlowFinding]:
    declared = program.stash_field_names
    for qualname, info in sorted(program.functions.items()):
        if not info.module.deterministic:
            continue
        if info.name in ("__init__", "__post_init__") or qualname in program.construction_only:
            continue
        sites = _stash_write_sites(info)
        fresh = _fresh_locals(info.node, sites, program) if sites else {}
        for site in sites:
            stash_name = site.args[1].value  # type: ignore[union-attr]
            chain = (_hop(info), f"write [{info.module.display}:{site.lineno}]")

            def finding(message: str, extra: Tuple[str, ...] = ()) -> FlowFinding:
                return FlowFinding(
                    "stash-discipline",
                    info.module.display,
                    site.lineno,
                    site.col_offset,
                    message,
                    chain + extra,
                )

            if stash_name not in declared:
                yield finding(
                    f"stash write in {info.qualname} targets '{stash_name}', which is "
                    "not a pre-declared init=False slot field on any message/record "
                    "class; declare the slot so sharing is part of the type"
                )
                continue
            target = site.args[0]
            first_use = fresh.get(target.id, (0, 0)) if isinstance(target, ast.Name) else (0, 0)
            if (site.lineno, site.col_offset) < first_use:
                continue
            guards = _guard_variables(info.node, stash_name)
            tests = [
                node.test
                for node in ast.walk(info.node)
                if isinstance(node, (ast.If, ast.While, ast.IfExp))
            ]
            guarded = any(_test_references(test, guards) for test in tests)
            if not guards or not guarded:
                yield finding(
                    f"stash write to '{stash_name}' in {info.qualname} is not guarded "
                    "by the stash-if-absent idiom (read the slot, test for a miss, "
                    "write only on miss): re-stashing lets one replica overwrite "
                    "what another already observed"
                )
                continue
            for test in _enclosing_if_tests(info.node, site):
                if not _test_references(test, guards):
                    try:
                        condition = ast.unparse(test)
                    except Exception:  # pragma: no cover - cosmetic
                        condition = "<condition>"
                    yield finding(
                        f"stash write to '{stash_name}' in {info.qualname} executes "
                        f"conditionally on non-stash state ('{condition}'): replicas "
                        "disagreeing on that state would stash or skip divergently "
                        "on the shared object",
                        (f"condition [{info.module.display}:{test.lineno}]: {condition}",),
                    )


# --------------------------------------------------------------------------
# Escape checker: alias analysis on stored memo/stash values
# --------------------------------------------------------------------------


def _parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _is_copy_wrapped(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """True when ``node`` is (transitively) an argument of a copying call."""
    cursor = node
    while cursor in parents:
        parent = parents[cursor]
        if isinstance(parent, ast.Call):
            name = _call_name(parent)
            if name is None and isinstance(parent.func, ast.Attribute):
                name = parent.func.attr
            if name in _COPYING_CALLS and cursor is not parent.func:
                return True
        cursor = parent
    return False


def _store_sites(func: FunctionInfo) -> List[Tuple[ast.AST, ast.AST, str]]:
    """(site, stored value, description) for memo/stash/cache stores."""

    def shared_ref(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return None
        lowered = name.lower()
        if "memo" in lowered or "cache" in lowered:
            return name
        return None

    sites: List[Tuple[ast.AST, ast.AST, str]] = []
    for node in ast.walk(func.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    table = shared_ref(target.value)
                    if table is not None:
                        sites.append((node, node.value, f"memo table '{table}'"))
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "store"
                and shared_ref(node.func.value) is not None
                and len(node.args) >= 2
            ):
                # ``store(..., entry)``: the stored value is the last argument.
                sites.append((node, node.args[-1], f"shared cache '{ast.unparse(node.func.value)}'"))
    for site in _stash_write_sites(func):
        stash_name = site.args[1].value  # type: ignore[union-attr]
        sites.append((site, site.args[2], f"message stash '{stash_name}'"))
    return sites


def check_shared_alias(program: Program) -> Iterator[FlowFinding]:
    for qualname, info in sorted(program.functions.items()):
        if not info.module.deterministic:
            continue
        if info.name == "__post_init__" or qualname in program.construction_only:
            continue
        owner = program.classes.get(info.class_name) if info.class_name else None
        mutable_attrs = owner.mutable_attrs if owner is not None else set()

        # Locals bound to mutable containers, and locals aliasing self state.
        # A later freezing rebind (``ops = tuple(ops)``) clears the mark: the
        # name that reaches the store is the frozen copy, not the container.
        mutable_locals: Dict[str, int] = {}
        self_alias_locals: Dict[str, Tuple[str, int]] = {}
        frozen_locals: Set[str] = set()
        for node in ast.walk(info.node):
            target: Optional[ast.Name] = None
            value: Optional[ast.AST] = None
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                target, value = node.target, node.value
            if target is None or value is None:
                continue
            name = target.id
            if isinstance(
                value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(value, ast.Call)
                and _call_name(value) in _MUTABLE_CONSTRUCTORS
                and not value.args
            ):
                mutable_locals.setdefault(name, node.lineno)
            elif (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
                and value.attr in mutable_attrs
            ):
                self_alias_locals.setdefault(name, (value.attr, node.lineno))
            elif isinstance(value, ast.Name):
                # Plain rename: the alias mark follows the name, so rename
                # laundering (``plan = pending; store(plan)``) still reports.
                if value.id in mutable_locals:
                    mutable_locals.setdefault(name, node.lineno)
                if value.id in self_alias_locals:
                    self_alias_locals.setdefault(name, self_alias_locals[value.id])
            elif (
                isinstance(value, ast.Call)
                and _call_name(value) in _COPYING_CALLS
                and any(
                    isinstance(sub, ast.Name) and sub.id == name
                    for arg in value.args
                    for sub in ast.walk(arg)
                )
            ):
                frozen_locals.add(name)
        for name in sorted(frozen_locals):
            mutable_locals.pop(name, None)
            self_alias_locals.pop(name, None)

        returned: Set[str] = {
            sub.id
            for node in ast.walk(info.node)
            if isinstance(node, ast.Return) and node.value is not None
            for sub in ast.walk(node.value)
            if isinstance(sub, ast.Name)
        }

        for site, value, where in _store_sites(info):
            parents = _parent_map(value)
            reported: Set[str] = set()

            def finding(message: str, origin_line: int, what: str) -> Optional[FlowFinding]:
                if what in reported:
                    return None
                reported.add(what)
                return FlowFinding(
                    "shared-alias",
                    info.module.display,
                    site.lineno,
                    site.col_offset,
                    message,
                    (
                        _hop(info),
                        f"store [{info.module.display}:{site.lineno}] into {where}",
                        f"alias origin [{info.module.display}:{origin_line}]",
                    ),
                )

            for sub in [value, *ast.walk(value)]:
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and sub.attr in mutable_attrs
                    and not _is_copy_wrapped(sub, parents)
                ):
                    result = finding(
                        f"{info.qualname} stores 'self.{sub.attr}' (a mutable "
                        f"replica-local container) into {where} without copying; "
                        "the shared entry aliases this replica's private state",
                        sub.lineno,
                        f"self.{sub.attr}",
                    )
                    if result:
                        yield result
                elif isinstance(sub, ast.Name) and not _is_copy_wrapped(sub, parents):
                    if sub.id in self_alias_locals:
                        attr, line = self_alias_locals[sub.id]
                        result = finding(
                            f"{info.qualname} stores local '{sub.id}' into {where}, "
                            f"but '{sub.id}' aliases mutable replica state "
                            f"'self.{attr}'; copy before sharing",
                            line,
                            f"local {sub.id}",
                        )
                        if result:
                            yield result
                    elif sub.id in mutable_locals and sub.id in returned:
                        result = finding(
                            f"{info.qualname} stores mutable local '{sub.id}' into "
                            f"{where} and also returns it to the caller; any consumer "
                            "mutation corrupts the deployment-shared entry (freeze "
                            "to a tuple before stashing)",
                            mutable_locals[sub.id],
                            f"local {sub.id}",
                        )
                        if result:
                            yield result


# --------------------------------------------------------------------------
# Stale suppressions (flow side)
# --------------------------------------------------------------------------


def stale_suppression_flow_findings(
    modules: Sequence[Module], raw: Sequence[FlowFinding], enabled: Set[str]
) -> List[FlowFinding]:
    fired = {(finding.path, finding.line, finding.analysis) for finding in raw}
    checkable = (set(FLOW_ANALYSES) & enabled) - {"stale-suppression"}
    known = set(FLOW_ANALYSES) | set(LINT_RULES)
    stale: List[FlowFinding] = []
    for module in modules:
        for line, allowed in sorted(module.allows.items()):
            for rule in sorted(allowed):
                if rule in checkable and (module.display, line, rule) not in fired:
                    stale.append(
                        FlowFinding(
                            "stale-suppression",
                            module.display,
                            line,
                            0,
                            f"suppression 'repro: allow[{rule}]' is stale: analysis "
                            f"{rule} no longer fires on this line",
                        )
                    )
                elif rule not in known:
                    stale.append(
                        FlowFinding(
                            "stale-suppression",
                            module.display,
                            line,
                            0,
                            f"suppression 'repro: allow[{rule}]' references a rule id "
                            "unknown to both lint and flow (typo?)",
                        )
                    )
    return stale


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

ANALYSIS_FUNCTIONS = {
    "nondeterministic-taint": check_nondeterministic_taint,
    "memo-taint": check_memo_taint,
    "stash-discipline": check_stash_discipline,
    "shared-alias": check_shared_alias,
}


def run_flow(
    paths: Sequence[Path],
    analyses: Optional[Iterable[str]] = None,
    exclude: Sequence[Path] = (),
) -> Tuple[List[FlowFinding], int]:
    """Analyze ``paths`` -> (unsuppressed findings, suppressed count)."""
    enabled = set(analyses) if analyses is not None else set(FLOW_ANALYSES)
    unknown = enabled - set(FLOW_ANALYSES)
    if unknown:
        raise ValueError(f"unknown analysis(es): {', '.join(sorted(unknown))}")

    modules, load_errors = load_modules(paths, exclude)
    findings: List[FlowFinding] = [
        FlowFinding("syntax-error", e.path, e.line, e.col, e.message) for e in load_errors
    ]
    program = Program(modules)
    for name in sorted(ANALYSIS_FUNCTIONS):
        if name in enabled:
            findings.extend(ANALYSIS_FUNCTIONS[name](program))
    if "stale-suppression" in enabled:
        findings.extend(stale_suppression_flow_findings(modules, findings, enabled))

    allow_tables = {module.display: module.allows for module in modules}
    kept: List[FlowFinding] = []
    suppressed = 0
    for finding in findings:
        allowed = allow_tables.get(finding.path, {}).get(finding.line, set())
        if finding.analysis in allowed:
            suppressed += 1
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.analysis, f.message))

    sources = {module.display: module.source.splitlines() for module in modules}
    seen: Dict[str, int] = {}
    with_ids: List[FlowFinding] = []
    for finding in kept:
        lines = sources.get(finding.path, ())
        text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        base = content_finding_id("flow", finding.analysis, finding.path, text, finding.message)
        occurrence = seen.get(base, 0)
        seen[base] = occurrence + 1
        fid = (
            base
            if occurrence == 0
            else content_finding_id(
                "flow", finding.analysis, finding.path, text, finding.message, occurrence
            )
        )
        with_ids.append(
            FlowFinding(
                finding.analysis,
                finding.path,
                finding.line,
                finding.col,
                finding.message,
                finding.chain,
                fid,
            )
        )
    return with_ids, suppressed


def load_baseline(path: Path) -> Dict[str, str]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    baseline = payload.get("baseline", {})
    if not isinstance(baseline, dict):
        raise ValueError(f"{path}: 'baseline' must be an object of id -> note")
    return {str(key): str(value) for key, value in baseline.items()}


def baseline_payload(findings: Sequence[FlowFinding]) -> str:
    entries = {
        finding.id: f"{finding.path}:{finding.line} {finding.analysis}"
        for finding in findings
    }
    return json.dumps({"baseline": dict(sorted(entries.items()))}, indent=2)


def report_json(
    findings: Sequence[FlowFinding], suppressed: int, baselined: int = 0
) -> str:
    return json.dumps(
        {
            "findings": [asdict(f) for f in findings],
            "suppressed": suppressed,
            "baselined": baselined,
            "stale_suppressions": sum(
                1 for finding in findings if finding.analysis == "stale-suppression"
            ),
            "analyses": list(FLOW_ANALYSES),
        },
        indent=2,
    )


def explain(findings: Sequence[FlowFinding], finding_id: str) -> Optional[str]:
    matches = [f for f in findings if f.id == finding_id or f.id.startswith(finding_id)]
    if not matches:
        return None
    lines: List[str] = []
    for finding in matches:
        lines.append(finding.render())
        if finding.chain:
            lines.append("  chain:")
            for index, hop in enumerate(finding.chain):
                lines.append(f"    {index}: {hop}")
        else:
            lines.append("  (no chain recorded)")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.flow",
        description="Interprocedural determinism-taint and shared-state escape "
        "analysis for the SBFT reproduction.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories to analyze")
    parser.add_argument(
        "--analyses", help="comma-separated analysis ids to run (default: all)", default=None
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
        help="directory prefix to skip (repeatable); e.g. tests/fixtures/flow",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="JSON baseline of known finding ids; only new findings fail the run",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write the current findings as a baseline file and exit 0",
    )
    parser.add_argument(
        "--explain",
        metavar="ID",
        help="print the full call/alias chain of one finding (id prefix ok)",
    )
    parser.add_argument("--list-analyses", action="store_true", help="list analysis ids and exit")
    args = parser.parse_args(argv)

    if args.list_analyses:
        for analysis in FLOW_ANALYSES:
            print(analysis)
        return 0

    analyses = None
    if args.analyses:
        analyses = [part.strip() for part in args.analyses.split(",") if part.strip()]
    try:
        findings, suppressed = run_flow(
            [Path(p) for p in args.paths], analyses, exclude=[Path(p) for p in args.exclude]
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.explain:
        text = explain(findings, args.explain)
        if text is None:
            print(f"error: no finding with id {args.explain!r}", file=sys.stderr)
            return 2
        print(text)
        return 0

    if args.write_baseline:
        Path(args.write_baseline).write_text(
            baseline_payload(findings) + "\n", encoding="utf-8"
        )
        print(f"wrote baseline with {len(findings)} finding(s)", file=sys.stderr)
        return 0

    baseline: Dict[str, str] = {}
    if args.baseline:
        try:
            baseline = load_baseline(Path(args.baseline))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2
    new_findings = [f for f in findings if f.id not in baseline]
    baselined = len(findings) - len(new_findings)
    unused = sorted(set(baseline) - {f.id for f in findings})

    if args.json_path:
        payload = report_json(new_findings, suppressed, baselined)
        if args.json_path == "-":
            print(payload)
        else:
            Path(args.json_path).write_text(payload + "\n", encoding="utf-8")
    for finding in new_findings:
        print(finding.render())
    summary = (
        f"{len(new_findings)} finding(s), {suppressed} suppressed, {baselined} baselined"
    )
    if unused:
        summary += f", {len(unused)} unused baseline entr(y/ies): {', '.join(unused[:5])}"
    print(summary, file=sys.stderr)
    return 1 if new_findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
