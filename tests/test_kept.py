"""One rule for what the package keeps between calls: the slots of ``kept``."""

import ast
import weakref
from pathlib import Path

import pytest

import circleresp
from circleresp._allocator import kept


class Value:
    """A build result that a weakref can watch."""


def test_a_hit_returns_the_kept_object_without_a_build():
    slot = {}
    first = kept(slot, "a", Value)
    assert kept(slot, "a", pytest.fail) is first
    assert slot == {"a": first}


def test_the_kept_value_is_dropped_before_the_next_is_built():
    slot = {}
    kept(slot, "a", Value)
    old = weakref.ref(slot["a"])
    seen = []

    def build():
        seen.append(old())
        return Value()

    new = kept(slot, "b", build)
    assert seen == [None]
    assert slot == {"b": new}


def test_a_build_that_raises_leaves_the_slot_empty():
    slot = {}
    kept(slot, "a", Value)

    def failing():
        raise ArithmeticError("no value")

    with pytest.raises(ArithmeticError):
        kept(slot, "b", failing)
    assert slot == {}
    built = kept(slot, "a", Value)
    assert slot == {"a": built}


def test_only_kept_clears_a_slot():
    # every value kept between calls goes through kept, so no module holds a
    # slot of its own: a dict emptied by hand or a closure rebinding its cell
    makers = set()
    for path in Path(circleresp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            clears = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "clear")
            if clears or isinstance(node, ast.Nonlocal):
                makers.add(path.name)
    assert makers == {"_allocator.py"}


def test_no_functools_cache_keeps_values():
    # lru_cache and cache keep values outside every slot, several at once
    found = []
    for path in Path(circleresp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name.rpartition(".")[2] if isinstance(node, ast.alias) else None)
            if name in ("lru_cache", "cache"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
