"""Atomic artifact writes.

A checkpoint, metrics log or image is written to a temporary file in
the target's directory and then renamed over the target with
``os.replace``, so a reader sees the old file or the whole new one,
never a partial write.  A write that fails removes its temporary file.
"""
from __future__ import annotations

import os
from contextlib import suppress


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one rename."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
