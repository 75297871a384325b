"""Emitted C built into shared libraries, cached on disk, and loaded.

One library per (C text, element type): the text is compiled by the gcc on
PATH with FLAGS, `-DELEM=<type>` choosing the element type, into the first
usable of $XDG_CACHE_HOME/polypack (default ~/.cache/polypack) and a
private directory under `tempfile.gettempdir()`, each owned by the
calling user; where `os.getuid` is missing (Windows) nothing is built.  A
file is named by the crc32 of text, flags and type and by the text's
length; the `.c` stored beside a `.so` is compared byte for byte with the
text before the `.so` is trusted.  Both are compiled and written under
temporary names and published with `os.replace`, `.so` first, so a
concurrent process never loads half a file.  Loaded libraries stay in a
dict keyed by text and type for the life of the process.  A plan's text
holds its summands', gathers' and packs' functions, so whichever of
`runtime.build_store` and `codegen.execute` first runs a plan on C builds
or loads its library.  A first build costs one gcc run: 44-230 ms (median
87-105 ms in two runs of all 36 builtin plans) on a 2-vCPU guest, against
about 0.3 ms to load a cached library.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
import zlib

# -falign-loops=32 starts every loop on a 32-byte boundary, so where a hot
# loop's branches fall does not move with the code around it: without it,
# packed TTM_UT on C ran 1.4-1.9x its dense C in-process, with the two inner
# loops compiled alike
FLAGS = ("-std=c99", "-O2", "-fwrapv", "-falign-loops=32", "-shared", "-fPIC")


class BuildError(RuntimeError):
    """No library can be built: no compiler, no usable directory, or gcc
    rejected the text."""


_LOADED = {}      # (text, element type) -> ctypes.CDLL, or the BuildError it raised
_COMPILERS = {}   # PATH -> the gcc found on it, or None


def compiler():
    """The gcc on PATH, or None; looked up once per value of PATH."""
    path = os.environ.get("PATH", os.defpath)
    if path not in _COMPILERS:
        _COMPILERS[path] = shutil.which("gcc", path=path)
    return _COMPILERS[path]


def library(text, elem):
    """The loaded library of a C text for an element type ("double" or
    "int64_t"), built on first use; raises BuildError when none can be."""
    got = _LOADED.get((text, elem))
    if got is None:
        try:
            got = _build(text, elem)
        except BuildError as e:
            got = e
        _LOADED[text, elem] = got
    if isinstance(got, BuildError):
        raise got
    return got


def _cache_dirs():
    # without a user id (Windows) no directory can be checked to be ours
    if not hasattr(os, "getuid"):
        raise BuildError("no private directory for compiled kernels: os.getuid is missing")
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return (os.path.join(base, "polypack"),
            os.path.join(tempfile.gettempdir(), f"polypack-{os.getuid()}"))


def _build(text, elem):
    gcc = compiler()
    if gcc is None:
        raise BuildError("no C compiler: gcc is not on PATH")
    flags = (*FLAGS, f"-DELEM={elem}")
    data = text.encode()
    name = f"{zlib.crc32(data + ' '.join(flags).encode()):08x}-{len(data):x}"
    errors = []
    for d in _cache_dirs():
        try:
            os.makedirs(d, mode=0o700, exist_ok=True)
            # a directory another user owns could hold anyone's library
            if os.stat(d).st_uid != os.getuid():
                raise PermissionError(f"{d} belongs to another user")
            return _load_or_compile(gcc, flags, data, os.path.join(d, name))
        except OSError as e:
            errors.append(str(e))
    raise BuildError(f"no writable directory for compiled kernels ({'; '.join(errors)})")


def _load_or_compile(gcc, flags, data, path):
    src, lib = path + ".c", path + ".so"
    try:
        with open(src, "rb") as f:
            if f.read() == data:
                return ctypes.CDLL(lib)
    except OSError:
        pass   # missing, unreadable or damaged: build it again
    fd, tmp_src = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".c",
                                   dir=os.path.dirname(path))
    tmp_lib = tmp_src[:-2] + ".so"
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        # imported only to build: it adds 0.5 MB of peak RSS to every process
        import subprocess
        done = subprocess.run([gcc, *flags, "-o", tmp_lib, tmp_src],
                              capture_output=True, text=True)
        if done.returncode:
            raise BuildError(f"gcc failed on the emitted C: {done.stderr.strip()[-2000:]}")
        loaded = ctypes.CDLL(tmp_lib)
        os.replace(tmp_lib, lib)
        os.replace(tmp_src, src)
        return loaded
    finally:
        for p in (tmp_src, tmp_lib):
            if os.path.exists(p):
                os.unlink(p)
