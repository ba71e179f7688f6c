"""Metric arithmetic of the served benchmark, kept free of I/O so that
test_benchlib.py can pin it down: the percentile rule, failure
accounting, span self-time subtraction and the metric-name charset."""

import math
import re
import statistics

# A failed, refused or degraded request counts as this latency: above any
# latency limit a user of the system would set, so it can only push a
# percentile up, never hide in the median.
OVER_LIMIT_MS = 60_000.0

# Tail percentiles need at least this many samples strictly above them.
TAIL_BEYOND = 10

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_metric_name(name):
    """Metric names: a letter or digit, then [A-Za-z0-9_.-], 64 at most."""
    return bool(_NAME_RE.match(name))


def with_failures(latencies_ms):
    """Maps the load result's failure marker (a negative latency) to
    OVER_LIMIT_MS. Returns (latencies, failed_count)."""
    out, failed = [], 0
    for v in latencies_ms:
        if v < 0:
            out.append(OVER_LIMIT_MS)
            failed += 1
        else:
            out.append(v)
    return out, failed


def median(values):
    return statistics.median(values) if values else None


def tail_percentile(values, want=99.0, beyond=TAIL_BEYOND):
    """The `want`-th percentile (nearest rank), lowered to the highest
    percentile that still has at least `beyond` samples above it.

    Returns (value, percentile, sample_count); value is None when fewer
    than beyond + 1 samples exist."""
    n = len(values)
    if n <= beyond:
        return None, None, n
    ordered = sorted(values)
    want_index = max(0, math.ceil(want / 100.0 * n) - 1)
    index = min(want_index, n - 1 - beyond)
    return ordered[index], 100.0 * (index + 1) / n, n


def split_windows(values, windows, count):
    """Groups values by their sub-window index (0 <= index < count)."""
    groups = [[] for _ in range(count)]
    for value, window in zip(values, windows):
        groups[int(window)].append(value)
    return groups


def windowed_latency(values_ms, windows, count, want=99.0):
    """Median over `count` sub-windows of each sub-window's median and
    tail percentile (the rule above, applied per sub-window). Failed
    samples (negative) count as OVER_LIMIT_MS.

    Returns (p50, tail, lowest tail percentile used, sample count).
    ValueError when a sub-window is too small for a tail."""
    lat, _ = with_failures(values_ms)
    p50s, tails, pcts = [], [], []
    for group in split_windows(lat, windows, count):
        tail, pct, n = tail_percentile(group, want)
        if tail is None:
            raise ValueError("a sub-window holds %d samples, too few for a tail" % n)
        p50s.append(statistics.median(group))
        tails.append(tail)
        pcts.append(pct)
    return statistics.median(p50s), statistics.median(tails), min(pcts), len(lat)


def failed_frac(attempted, failed):
    if attempted <= 0:
        raise ValueError("no operation attempted")
    return failed / attempted


def span_durations_by_op(spans, layer):
    """{op: duration_us} for spans whose name starts with `layer`.
    When an op has several spans in the layer, their durations add up."""
    out = {}
    for s in spans:
        if s["name"].startswith(layer):
            out[s["op"]] = out.get(s["op"], 0.0) + (s["end_ns"] - s["start_ns"]) / 1e3
    return out


def self_times(spans, parent_layer, child_layer, ops=None):
    """Per-op self time of `parent_layer` in microseconds: its span minus
    the span of `child_layer` on the same op. Ops missing from either
    layer are skipped; `ops`, when given, restricts the set."""
    parent = span_durations_by_op(spans, parent_layer)
    child = span_durations_by_op(spans, child_layer)
    keys = sorted(set(parent) & set(child))
    if ops is not None:
        keys = [k for k in keys if k in ops]
    return [parent[k] - child[k] for k in keys]


def median_self_time(spans, parent_layer, child_layer, ops=None):
    diffs = self_times(spans, parent_layer, child_layer, ops)
    return statistics.median(diffs) if diffs else 0.0


def durations_us(spans, layer):
    return [(s["end_ns"] - s["start_ns"]) / 1e3 for s in spans
            if s["name"].startswith(layer)]


def parse_stats(text):
    """`key value` STATS rows -> {key: number}; histogram and non-numeric
    rows are skipped."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 2:
            continue
        try:
            out[parts[0]] = float(parts[1])
        except ValueError:
            pass
    return out


def ratio(num, den):
    return num / den if den else 0.0


def metric_set_problem(metrics, declared):
    """None when `metrics` holds exactly the declared names, each valid and
    finite; otherwise a one-line description of the first problem."""
    for name in declared:
        if not valid_metric_name(name):
            return "bad metric name %r" % name
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if missing or extra:
        return "metric set differs from BENCHMARK.json: missing %s, extra %s" % (missing, extra)
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "metric %s is not a finite number: %r" % (name, value)
    return None
