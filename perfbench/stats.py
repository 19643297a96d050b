"""Timing summaries: a median plus the highest percentile the sample supports."""

from __future__ import annotations

import math
import statistics

PERCENTILES = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n: int) -> float:
    """Highest percentile of PERCENTILES with at least MIN_BEYOND of n samples
    ranked beyond it."""
    eligible = [p for p in PERCENTILES if n - _rank(p, n) >= MIN_BEYOND]
    if not eligible:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond the median")
    return eligible[-1]


def summarize(values: list[float]) -> dict:
    """Median, tail percentile, its value and the sample count."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    return {
        "p50": statistics.median(ordered),
        "tail_p": p,
        "tail": ordered[_rank(p, len(ordered)) - 1],
        "n": len(ordered),
    }


def label(p: float) -> str:
    return f"p{p:g}"


def peak_rss_mb() -> float:
    """VmHWM of this process, in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")
