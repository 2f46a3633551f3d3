"""Operator-sized arrays live in mappings of their own, so freeing one returns its memory."""

import os

import numpy as np
import pytest

import circleresp  # noqa: F401  (the import pins the threshold)
from circleresp._allocator import MMAP_THRESHOLD, pin_mmap_threshold


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


pytestmark = pytest.mark.skipif(not (_glibc() and os.path.exists("/proc/self/maps")),
                                reason="glibc's allocator, seen through /proc/self/maps")


def _heap_span() -> tuple[int, int]:
    """[start, end) of the brk heap, whose VMAs madvise may have split."""
    with open("/proc/self/maps", encoding="ascii") as maps:
        spans = [tuple(int(x, 16) for x in line.split()[0].split("-"))
                 for line in maps if line.rstrip().endswith("[heap]")]
    return (min(s[0] for s in spans), max(s[1] for s in spans)) if spans else (0, 0)


def test_an_operator_freed_and_allocated_again_stays_off_the_heap():
    # glibc's dynamic threshold would serve the second one from the heap
    n = 1024
    for _ in range(3):
        mat = np.ones((n, n))
        start, end = _heap_span()
        assert not start <= mat.ctypes.data < end
        del mat


def test_row_blocks_stay_on_the_heap():
    block = np.ones(MMAP_THRESHOLD // 2 // 8)
    start, end = _heap_span()
    assert start <= block.ctypes.data < end


def test_glibc_accepts_both_thresholds():
    assert pin_mmap_threshold()
