"""AST-based protocol-invariant linter (zero third-party dependencies).

Run as ``python -m repro.analysis.lint [paths...]``.  The rules guard the two
things a same-process double run of the program cannot see — ambient time /
entropy and hash order — wherever they stand in a deterministic package,
whoever calls them.  Everything else that used to be modelled here is checked
on the real objects by tests (``docs/static-analysis.md`` says which).

``no-wall-clock``
    Deterministic packages must not read wall clocks or ambient entropy
    (``time.time``, ``datetime.now``, ``os.urandom``, module-level
    ``random.*`` draws, ``uuid``, ``secrets``).  Only injected seeded
    ``random.Random`` instances may draw.
``ordered-iteration``
    Iterating a ``set`` (or ``dict.keys`` of an unordered source) in a
    decision-affecting module is flagged unless wrapped in ``sorted()`` or
    fed to an order-insensitive consumer.
``stale-suppression``
    A ``# repro: allow[<rule>]`` comment naming an enabled rule that no
    longer fires on that line, or an id that is not a rule at all (a typo),
    is itself a finding, so the suppression inventory cannot rot as the code
    underneath it changes.

Findings may be suppressed per physical line with ``# repro: allow[<rule>]``
(comma-separate multiple rule ids).  ``--json`` emits a machine-readable
report.  Exit status is 1 when any unsuppressed finding remains.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import re
import sys
from dataclasses import asdict, dataclass, replace
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


def assign_finding_ids(
    findings: Sequence[Finding], sources: Dict[str, Sequence[str]]
) -> List[Finding]:
    """Return findings with content-derived ``id`` fields filled in.

    ``sources`` maps display path -> source lines (for the flagged line's
    text).  Identical (rule, path, text, message) tuples get an occurrence
    counter so duplicates still receive distinct ids.
    """
    seen: Dict[Tuple[str, ...], int] = {}
    out: List[Finding] = []
    for finding in findings:
        lines = sources.get(finding.path, ())
        text = lines[finding.line - 1].strip() if 0 < finding.line <= len(lines) else ""
        # "lint" stays in the basis so ids equal those in earlier reports.
        content = ("lint", finding.rule, finding.path, text, finding.message)
        occurrence = seen[content] = seen.get(content, -1) + 1
        basis = "\x1f".join(content + (str(occurrence),))
        out.append(replace(finding, id=hashlib.sha256(basis.encode("utf-8")).hexdigest()[:12]))
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


def _wall_clock_reads(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Ambient time/entropy reads in ``tree`` as (node, message) pairs."""
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
    for node, message in _wall_clock_reads(module.tree):
        yield Finding("no-wall-clock", module.display, node.lineno, node.col_offset, message)


# --------------------------------------------------------------------------
# Rule: ordered-iteration
# --------------------------------------------------------------------------

_SET_ANNOTATION_RE = re.compile(r"\b(?:[Ff]rozen[Ss]et|[Ss]et)\b")
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


def _unordered_iterations(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Order-leaking set iterations in ``tree`` as (node, message) pairs."""
    names, attrs = _collect_set_symbols(tree)

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
    for node, message in _unordered_iterations(module.tree):
        yield Finding(
            "ordered-iteration", module.display, node.lineno, node.col_offset, message
        )


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

MODULE_RULES = {
    "no-wall-clock": check_no_wall_clock,
    "ordered-iteration": check_ordered_iteration,
}
#: ``stale-suppression`` is a meta rule over the other rules' results, so it
#: is not in the table; it is enabled by default like every other rule.
ALL_RULES = tuple(sorted([*MODULE_RULES, "stale-suppression"]))


def stale_suppression_findings(
    modules: Sequence[Module], raw_findings: Sequence[Finding], enabled: Set[str]
) -> List[Finding]:
    """Allow comments naming an enabled rule that did not fire on that line,
    or an id that is no rule at all."""
    fired = {(finding.path, finding.line, finding.rule) for finding in raw_findings}
    checkable = set(MODULE_RULES) & enabled
    stale: List[Finding] = []
    for module in modules:
        for line, allowed in sorted(module.allows.items()):
            for rule in sorted(allowed):
                if rule not in ALL_RULES:
                    reason = "names a rule id the linter does not have (typo?)"
                elif rule in checkable and (module.display, line, rule) not in fired:
                    reason = f"is stale: rule {rule} no longer fires on this line"
                else:
                    continue
                stale.append(
                    Finding(
                        "stale-suppression",
                        module.display,
                        line,
                        0,
                        f"suppression 'repro: allow[{rule}]' {reason}",
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
    if "stale-suppression" in enabled:
        findings.extend(stale_suppression_findings(modules, findings, enabled))

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
