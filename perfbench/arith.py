"""Arithmetic the benchmark reports with, kept apart so it can be tested."""

import math
import re

# A metric name may use only these characters (registry names such as
# "hydra/gp" or "scp/barrier" carry a '/').
_NAME_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]")


def sanitize(name):
    """Registry name -> metric-name fragment: every unsafe character -> '-'."""
    return _NAME_UNSAFE.sub("-", name)


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(values, min_beyond=10,
                    levels=(0.999, 0.99, 0.95, 0.9, 0.75, 0.5)):
    """Highest percentile level with at least `min_beyond` samples above it.

    Returns (level, value, samples_beyond) by the nearest-rank rule, or
    None when even the lowest level lacks the samples.
    """
    ordered = sorted(values)
    for q in levels:
        rank = max(1, math.ceil(q * len(ordered)))  # nearest rank, 1-based
        beyond = len(ordered) - rank
        if ordered and beyond >= min_beyond:
            return q, ordered[rank - 1], beyond
    return None


def reuse_ratio(distinct, rows):
    """1 - distinct partitions per cell / rows with a partition (0 if none)."""
    if rows <= 0:
        return 0.0
    if distinct > rows or distinct < 0:
        raise ValueError("distinct partitions must lie in [0, rows]")
    return 1.0 - distinct / rows


def ratio(numerator, denominator, empty=0.0):
    """numerator / denominator, or `empty` when there is nothing to divide."""
    return numerator / denominator if denominator else empty



def host_speed(reference_cpu_ms, threads, nominal_ms):
    """Host speed relative to a reference host, from reference-work timings.

    `reference_cpu_ms` are CPU times of one fixed piece of work run on
    `threads` threads at once; `nominal_ms` is its CPU time per thread on the
    reference host.  A host that needs twice the time has speed 0.5: divide
    a rate by the speed (multiply a time by it) to rescale it to the
    reference host.  The median damps a try that was interrupted.
    """
    per_thread_ms = median(reference_cpu_ms) / threads
    if per_thread_ms <= 0:
        raise ValueError("reference work took no time")
    return nominal_ms / per_thread_ms
