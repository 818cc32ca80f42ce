"""Environment record attached to every benchmark result (read-only)."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, Optional


def _read(path: Path) -> Optional[str]:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def src_digest(root: Path) -> str:
    """Digest of the package sources, which identifies the code when no
    commit is available."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> Optional[str]:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def steal_ticks() -> Optional[int]:
    """Aggregate steal time from /proc/stat, in clock ticks."""
    for line in (_read(Path("/proc/stat")) or "").splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            return int(fields[8])
    return None


def static(root: Path) -> Dict:
    return {
        "commit": git_commit(root),
        "src_sha256": src_digest(root),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def snapshot() -> Dict:
    return {"time": time.time(), "loadavg": list(os.getloadavg()),
            "steal_ticks": steal_ticks()}
