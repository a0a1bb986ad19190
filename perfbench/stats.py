"""The benchmark's arithmetic: sample summaries and parallel efficiency.

Kept free of ``repro`` imports so the tests can check it in isolation.
"""

import statistics

#: percentiles a summary may report beyond the median, highest last
TAIL_PERCENTILES = (90, 95, 99, 99.9)

#: a tail percentile is reported only with this many samples beyond it
TAIL_MIN_BEYOND = 10


def quartiles(values):
    """``(q1, median, q3)`` the way ``statistics.quantiles(n=4)`` cuts them
    (one sample: all three are that sample)."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(n):
    """The highest reportable percentile for ``n`` samples, or None.

    A percentile is reportable when at least :data:`TAIL_MIN_BEYOND`
    samples lie beyond it, i.e. ``n * (1 - p/100) >= 10``.
    """
    best = None
    for p in TAIL_PERCENTILES:
        if round(n * (100 - p), 6) >= TAIL_MIN_BEYOND * 100:
            best = p
    return best


def summarize(values):
    """Median, quartiles, sample count and the reportable tail."""
    values = sorted(values)
    q1, median, q3 = quartiles(values)
    summary = {"n": len(values), "median": median, "q1": q1, "q3": q3}
    p = tail_percentile(len(values))
    if p is not None:
        summary["p"] = p
        summary["tail"] = statistics.quantiles(values, n=1000)[
            int(round(p * 10)) - 1]
    return summary


def format_summary(summary, unit):
    """``median 5.41 s [q1 5.38, q3 5.47] (n=3)`` plus the tail, if any."""
    text = "median {:.6g} {} [q1 {:.6g}, q3 {:.6g}] (n={})".format(
        summary["median"], unit, summary["q1"], summary["q3"], summary["n"])
    if "p" in summary:
        text += ", p{:g} {:.6g} {}".format(summary["p"], summary["tail"],
                                           unit)
    return text


def par_idle_s(capacity_s, serial_s):
    """Worker-seconds the pool held but no cell used.

    ``capacity_s`` is jobs x wall; ``serial_s`` the summed cell time.
    """
    return capacity_s - serial_s


def par_efficiency(capacity_s, serial_s):
    """Serial cell cost over the pool's capacity, jobs x wall (0 if none)."""
    return serial_s / capacity_s if capacity_s > 0 else 0.0
