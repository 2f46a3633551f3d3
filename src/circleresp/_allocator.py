"""Large arrays in mappings of their own, under glibc.

An operator at n = 1024 is an 8 MiB array, and one circle experiment
allocates and frees some tens of n x n and (n+2) x (n+2) arrays: the
operator, the branch interpolation matrices and the two buffers of its gap
bound, one of which holds R.  glibc maps a block that large with mmap at
first, but its dynamic threshold rises to the size of the first mapped
block freed, so from then on every such array comes from the brk heap.
The heap returns memory only from its top, so its extent, and with it the
resident peak of the process, depends on where smaller allocations happen
to split the space of freed matrices: runs of one input read peaks one
matrix apart.

:func:`pin_mmap_threshold` fixes the threshold at :data:`MMAP_THRESHOLD`,
so every array of at least that size has a mapping of its own that is
unmapped when it is freed, and the resident peak follows the arrays that
are alive at once.  The trim threshold is set to twice that, as glibc's
dynamic rule would set it, so the heap keeps the row blocks (1 MiB at
most) that assembly and interpolation reuse.  The package applies it on
import; where the C library is not glibc it does nothing.
"""

import ctypes
import os

MMAP_THRESHOLD = 2 << 20  # bytes: above the row blocks, at most an n = 512 matrix

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at MMAP_THRESHOLD; False where the C library is not glibc."""
    try:
        libc_version = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False
    if not libc_version.startswith("glibc"):
        return False
    libc = ctypes.CDLL(None)
    return (libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and libc.mallopt(_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD) == 1)
