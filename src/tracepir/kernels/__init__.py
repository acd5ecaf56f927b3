"""Arithmetic kernel selection.

``fast`` is the optional Cython extension, ``pure`` the Python fallback.
The compiled module is used when its build succeeded; set the environment
variable ``TRACEPIR_PURE_KERNEL=1`` to force the fallback, for example to
compare the two backends in separate processes.
"""

import os

from . import pure

if os.environ.get("TRACEPIR_PURE_KERNEL"):
    _active = pure
else:
    try:
        from . import fast as _active  # type: ignore[no-redef]
    except ImportError:
        _active = pure

BACKEND = "pure" if _active is pure else "fast"

MAX_DEGREE = pure.MAX_DEGREE
mod_inv = _active.mod_inv
ext_mul = _active.ext_mul
ext_pow = _active.ext_pow
ext_inv = _active.ext_inv
ext_dot = _active.ext_dot


def backend() -> str:
    """Name of the kernel implementation in use ('fast' or 'pure')."""
    return BACKEND
