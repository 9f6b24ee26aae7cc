"""Build-on-first-use loader for the native SMO kernel (``smo_kernel.c``).

The shared library is compiled with the system C compiler the first
time a solve asks for it, cached under ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``; a per-user directory under the system temp
dir when that is not writable) and named by a hash of the source, the
compiler command, the flags and the target (``sys.platform`` and the
machine architecture), so an edited kernel never loads a stale build
and hosts sharing one cache never load each other's.  Delete the
cache directory to force a rebuild.  Nothing happens at import time.

When no library can be built (no compiler, unwritable cache) the loader
warns once and :func:`repro.svm.smo.solve_smo_batch` keeps using numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Any

import numpy as np

from ..obs.runtime import kernel_span

__all__ = ["NativeKernel", "kernel"]

SOURCE = Path(__file__).with_name("smo_kernel.c")
#: No -ffast-math / -march=native: FMA contraction or reassociation
#: would change the float32 rounding the numpy oracle pins.
FLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-fPIC", "-shared")

_F32 = np.ctypeslib.ndpointer(np.float32, flags="C_CONTIGUOUS")
_ARGTYPES = [
    ctypes.c_int64, ctypes.c_int64, _F32, _F32, _F32, ctypes.c_float,
    ctypes.c_double, ctypes.c_int64, ctypes.c_int, ctypes.c_int64,
    ctypes.c_int64, _F32, _F32,
    np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),
    np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS"),
    np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
]


def _cache_dirs() -> list[Path]:
    """Candidate cache directories, preferred first."""
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    user = os.getuid() if hasattr(os, "getuid") else os.getpid()
    return [Path(xdg) / "repro", Path(tempfile.gettempdir()) / f"repro-{user}"]


def _writable_dir() -> Path:
    for directory in _cache_dirs():
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        # A shared temp dir could hold someone else's directory (and
        # library) under our name: only load from a directory we own.
        owned = not hasattr(os, "getuid") or directory.stat().st_uid == os.getuid()
        if owned and os.access(directory, os.W_OK | os.X_OK):
            return directory
    raise OSError(f"no writable cache directory among {_cache_dirs()}")


class NativeKernel:
    """One process's handle on the compiled kernel, built at most once.

    ``cc`` is the compiler command.  ``get()`` returns the bound
    ``smo_solve_batch`` function, or ``None`` (after one
    ``RuntimeWarning``) when the library cannot be built or loaded.
    """

    def __init__(self, cc: str = "cc") -> None:
        self._cc = cc
        self._lock = threading.Lock()
        self._tried = False
        self._fn: Any = None

    def get(self) -> Any:
        with self._lock:
            if not self._tried:
                self._tried = True
                try:
                    self._fn = self._load()
                except (OSError, subprocess.CalledProcessError) as exc:
                    detail = getattr(exc, "stderr", None) or exc
                    warnings.warn(
                        f"native SMO kernel unavailable, using numpy: {detail}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            return self._fn

    def _load(self) -> Any:
        digest = hashlib.sha256(SOURCE.read_bytes())
        target = (sys.platform, platform.machine())
        digest.update("\0".join((self._cc, *FLAGS, *target)).encode())
        directory = _writable_dir()
        path = directory / f"smo_kernel-{digest.hexdigest()[:16]}.so"
        if not path.exists():
            with kernel_span("smo.native_build"):
                self._build(directory, path)
        fn = ctypes.CDLL(str(path)).smo_solve_batch
        fn.argtypes = _ARGTYPES
        fn.restype = None
        return fn

    def _build(self, directory: Path, path: Path) -> None:
        # Compile to a private temp name, then rename: a concurrent
        # builder (another worker process) never sees a partial file.
        fd, tmp = tempfile.mkstemp(prefix=".smo_kernel-", suffix=".so", dir=directory)
        os.close(fd)
        try:
            subprocess.run(
                [self._cc, *FLAGS, "-o", tmp, str(SOURCE)],
                check=True, capture_output=True, text=True,
            )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


#: The process-wide kernel handle ``solve_smo_batch`` dispatches through.
kernel = NativeKernel()
