"""Frozen records built through their slots.

:func:`frozen_record` is ``dataclass(frozen=True, slots=True)`` with its own
``__init__``: the stock frozen constructor writes each field with
``object.__setattr__`` (a generic attribute lookup per field), this one calls
each field's slot descriptor (``__set__``) directly.  Signature, defaults,
``default_factory``, ``init=False`` defaults, ``kw_only`` and the
``__post_init__`` call are the dataclass's; so is everything else it
generates (``tests/test_records.py`` compares every record with its stock
twin).  ``InitVar`` is not supported.  Each constructor is compiled under its
own file name, ``<record Name>``: a profile lists one row per class, where
every stock ``__init__`` shares the row ``('<string>', 2, '__init__')``.
"""

from __future__ import annotations

from dataclasses import _HAS_DEFAULT_FACTORY as _FACTORY, MISSING, dataclass, fields


def frozen_record(cls: type) -> type:
    """``@dataclass(frozen=True, slots=True)`` building through the slots."""
    # No stock ``__init__`` is built only to be dropped: discarding 30-odd at
    # import cost ~0.7 MB of peak RSS on kv-sbft-fast (heap layout alone).
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cells, positional, keyword, body = {"_FACTORY": _FACTORY}, [], [], []
    for field in fields(cls):
        name = field.name
        if field.default_factory is not MISSING:
            cells[f"_factory_{name}"] = field.default_factory
            value, param = f"_factory_{name}()", f"{name}=_FACTORY"
            if field.init:
                value = f"{value} if {name} is _FACTORY else {name}"
        elif field.default is not MISSING:
            cells[f"_default_{name}"] = field.default
            value = name if field.init else f"_default_{name}"
            param = f"{name}=_default_{name}"
        elif field.init:
            value = param = name
        else:
            continue  # unset until someone sets it, as with the stock init
        if field.init:
            (keyword if field.kw_only else positional).append(param)
        cells[f"_set_{name}"] = cls.__dict__[name].__set__
        body.append(f"  _set_{name}(self, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    params = ", ".join(["self", *positional, *(["*", *keyword] if keyword else [])])
    source = f"def __init__({params}):\n" + "\n".join(body or ["  pass"])
    source = f"def __create_fn__({', '.join(cells)}):\n {source}\n return __init__\n"
    namespace: dict = {}
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), namespace)
    init = cls.__init__ = namespace["__create_fn__"](**cells)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fields(cls) if f.init}, "return": None}
    return cls
