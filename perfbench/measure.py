"""Small measuring helpers: percentiles, bytes written, tree sizes, RSS."""

from __future__ import annotations

import gc
import resource
import statistics
from pathlib import Path
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def written_bytes() -> int:
    """Bytes this process has passed to ``write`` so far (``wchar``).

    Counts every thread of the process and every file it writes — the
    WAL, checkpoints, the event log — whether or not the kernel has
    flushed them yet, so it does not depend on writeback timing.
    """
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def tree_bytes(root: Path) -> int:
    """Total size of the regular files under ``root``."""
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """Resident set size of this process now, in MiB."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * resource.getpagesize() / (1024.0 * 1024.0)


def quiesce() -> None:
    """Collect garbage so a timed phase does not pay for earlier ones."""
    gc.collect()
