"""The results census: every ``src/repro`` function that no result enters.

Runs everything the repo reports — the five ``benchmarks/perf`` workloads at
``--smoke``, the four examples, the throughput grid at ``--scale small`` and
the adversary search's default grid (no ``--scale``) — in this one process
under a stdlib
``sys.setprofile`` hook, then prints, one per line and sorted, the
``module:qualname`` of each function defined under ``src/repro`` that was
never entered.  No line numbers are printed, so an unrelated edit does not
move the output.  Every entry is justified in docs/architecture.md,
"Census"; the run exits 1, naming each function, when a function enters or
leaves that list.  Needs Python 3.11 or later (``co_qualname``).

Run with::

    python benchmarks/census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import runpy
import sys
from typing import Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
PERF = os.path.join(ROOT, "benchmarks", "perf")
DOC = os.path.join(ROOT, "docs", "architecture.md")

WORKLOADS = (
    "kv-sbft-fast",
    "kv-pbft-quadratic",
    "evm-sbft-lan",
    "kv-sbft-viewchange",
    "kv-sbft-pipelined-rw",
)
EXAMPLES = ("quickstart.py", "view_change_demo.py", "kv_benchmark.py", "smart_contracts.py")


def _module_name(path: str) -> str:
    relative = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
    if relative[-1] == "__init__":
        relative.pop()
    return ".".join(relative)


def _qualnames(node: ast.AST, prefix: str = "") -> Iterator[str]:
    """Qualified names of the functions under ``node``, as ``co_qualname`` spells them."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            yield qualname
            yield from _qualnames(child, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _qualnames(child, prefix + child.name + ".")
        else:
            yield from _qualnames(child, prefix)


def defined() -> Set[Tuple[str, str]]:
    """``(path, qualname)`` of every function defined under ``src/repro``."""
    functions = set()
    for directory, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), path)
                functions.update((path, qualname) for qualname in _qualnames(tree))
    return functions


def run_results() -> None:
    """Run every result once, output discarded."""
    sys.path[:0] = [SRC, PERF]
    import worker

    from repro.adversary import search
    from repro.experiments import harness, throughput

    for workload in WORKLOADS:
        record = worker.run_rep(workload, seed=0, smoke=True, trace=False, spawned_at=0.0)
        if record["failures"]:
            raise SystemExit(f"{workload}: {record['failures']}")
    for example in EXAMPLES:
        path = os.path.join(ROOT, "examples", example)
        sys.argv = [path]
        runpy.run_path(path, run_name="__main__")
    if harness.main(throughput.SWEEP, ["--scale", "small"]) != 0:
        raise SystemExit("the throughput grid failed")
    if harness.main(search.SWEEP, []) != 0:
        raise SystemExit("the adversary search failed")


def entered_by_results() -> Set[Tuple[str, str]]:
    """``(path, qualname)`` of every function a result enters."""
    codes = set()

    def hook(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(hook)
        try:
            run_results()
        finally:
            sys.setprofile(None)
    return {(os.path.abspath(code.co_filename), code.co_qualname) for code in codes}


def census() -> List[str]:
    """Sorted ``module:qualname`` of every function no result enters."""
    return sorted(f"{_module_name(path)}:{qualname}"
                  for path, qualname in defined() - entered_by_results())


def committed() -> List[str]:
    """The census list committed in docs/architecture.md, in file order."""
    with open(DOC, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"^<!-- census:begin -->$(.*?)^<!-- census:end -->$", text, re.M | re.S)
    return [line for line in block.group(1).splitlines() if line.startswith("repro.")]


def main() -> int:
    """Print the census; report on stderr and exit 1 where it differs from the list."""
    if sys.version_info < (3, 11):
        raise SystemExit("benchmarks/census.py needs Python 3.11 or later (co_qualname)")
    fresh = census()
    print("\n".join(fresh))
    listed = committed()
    problems = [f"no result enters this function and docs/architecture.md does not list it: {entry}"
                for entry in fresh if entry not in listed]
    problems += [f"docs/architecture.md lists this function but the census does not: {entry}"
                 for entry in listed if entry not in fresh]
    if listed != fresh and not problems:
        problems.append("docs/architecture.md census list is not sorted once each")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
