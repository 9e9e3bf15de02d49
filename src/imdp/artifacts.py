"""Atomic artifact writes, and the one reader of key=value text.

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


def read_kv(text: str, where: str) -> dict[str, str]:
    """Key -> value of ``key=value`` lines.  Blank lines and ``#`` comments
    are skipped, a ``[section]`` line prefixes the keys after it with
    ``section.``, and a repeated key keeps its last value.  A line without
    ``=`` raises ``ValueError`` naming ``where`` and the line number."""
    out: dict[str, str] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{where}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if section:
            key = f"{section}.{key}"
        out[key] = value.strip()
    return out
