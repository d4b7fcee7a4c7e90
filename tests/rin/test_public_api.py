"""Every public callable of ``repro.rin`` has resolvable annotations.

The modules use ``from __future__ import annotations``, so a name used
only in an annotation and never imported stays hidden until a tool
(docs builders, runtime validators) resolves the hints.
"""

import inspect
import typing

import pytest

import repro.rin as rin


def _public_callables():
    for name in rin.__all__:
        obj = getattr(rin, name)
        if inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (
                    attr == "__init__" or not attr.startswith("_")
                ):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


CALLABLES = dict(_public_callables())


@pytest.mark.parametrize("obj", CALLABLES.values(), ids=CALLABLES.keys())
def test_type_hints_resolve(obj):
    typing.get_type_hints(obj)
