"""``benchmarks/census.py`` names functions as their code objects do.  The
census run itself, compared with docs/architecture.md, is a CI step."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("census", _ROOT / "benchmarks" / "census.py")
census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)

_SOURCE = '''
def top():
    def inner():
        pass
    class Local:
        def method(self):
            pass
class Outer:
    class Nested:
        async def waits(self):
            def helper():
                pass
if True:
    def guarded():
        pass
'''


def _function_qualnames(code):
    names = set()
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            if const.co_flags & 0x1:  # CO_OPTIMIZED: a function, not a class body
                names.add(const.co_qualname)
            names |= _function_qualnames(const)
    return names


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is 3.11+")
def test_census_names_functions_as_their_code_objects_do():
    expected = _function_qualnames(compile(_SOURCE, "<sample>", "exec"))
    assert set(census._qualnames(ast.parse(_SOURCE))) == expected
    assert "Outer.Nested.waits.<locals>.helper" in expected

