#!/usr/bin/env python3
"""Perf regression gate over the bench JSON artifacts.

Compares a freshly produced bench JSON (bench_engine --json /
bench_serving --json) against the committed baseline under
bench/baselines/ and fails when a throughput row dropped past the
tolerance. The tolerance is deliberately loose (default 0.4): CI
runners and the machines that record baselines differ, and the gate
exists to catch *large* regressions — an accidentally quadratic hot
path, a lock held across a batch, a lost fast path — not 10% noise.

Cross-machine-robust checks ride along: batch_speedup (batch vs
per-instance push, a within-run ratio) must stay above
--min-batch-speedup on every row that records one. The default floor
(0.9) asserts "batching is never materially slower than per-instance
push"; the absolute speedup is contention-dependent (it grows with
core count and producer threads), so the recorded trajectory, not the
floor, is the number to watch across runs.

Only the throughput field is gated. Other row fields pass through
unread: bench_engine's serve row also records per-Label latency
(label_samples, label_p50_us, label_p99_us, label_p999_us), but tails
on shared CI runners are too noisy to gate.

Usage:
  bench_gate.py --baseline bench/baselines/BENCH_engine.json \
                --current BENCH_engine.json [--min-ratio 0.4] \
                [--min-batch-speedup 0.9]

Exit codes: 0 clean, 1 regression / mismatched schema, 2 bad input.
"""

import argparse
import json
import sys

# Per-bench row identity, the throughput field the ratio check runs on,
# and the fields that must match for two runs to be comparable.
BENCH_SHAPES = {
    "engine": {"key": "path", "throughput": "per_sec",
               "config": ("classifier", "detector")},
    "serving": {"key": "shards", "throughput": "pushes_per_sec",
                "config": ("classifier", "detector")},
}

SCHEMA_VERSION = 1


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def check(baseline, current, min_ratio, min_batch_speedup):
    failures = []
    for doc, name in ((baseline, "baseline"), (current, "current")):
        if doc.get("schema_version") != SCHEMA_VERSION:
            failures.append(
                f"{name} schema_version is {doc.get('schema_version')!r}, "
                f"gate speaks {SCHEMA_VERSION}; refusing to compare")
    if failures:
        return failures
    kind = baseline.get("bench")
    if current.get("bench") != kind:
        return [f"bench kind mismatch: baseline={kind!r} "
                f"current={current.get('bench')!r}"]
    shape = BENCH_SHAPES.get(kind)
    if shape is None:
        return [f"unknown bench kind {kind!r}"]
    # One bench kind records several configurations (bench_engine runs
    # naive-bayes/none and the paper's cs-ptree/RBM-IM); rows of different
    # configurations are not comparable.
    for field in shape.get("config", ()):
        if baseline.get(field) != current.get(field):
            failures.append(
                f"{field} mismatch: baseline={baseline.get(field)!r} "
                f"current={current.get(field)!r}; refusing to compare")
    if failures:
        return failures

    key, field = shape["key"], shape["throughput"]
    base_rows = {row[key]: row for row in baseline.get("rows", [])}
    cur_rows = {row[key]: row for row in current.get("rows", [])}
    for row_key, base in sorted(base_rows.items(), key=lambda kv: str(kv[0])):
        cur = cur_rows.get(row_key)
        if cur is None:
            failures.append(f"row {key}={row_key} vanished from current run")
            continue
        base_v, cur_v = base.get(field, 0.0), cur.get(field, 0.0)
        if base_v > 0 and cur_v < min_ratio * base_v:
            failures.append(
                f"row {key}={row_key}: {field} {cur_v:.0f} is below "
                f"{min_ratio:.2f}x baseline {base_v:.0f}")
        speedup = cur.get("batch_speedup")
        if speedup is not None and speedup > 0 and \
                speedup < min_batch_speedup:
            failures.append(
                f"row {key}={row_key}: batch_speedup {speedup:.3f} below "
                f"floor {min_batch_speedup:.2f} — batch push regressed "
                f"against per-instance push")
    # Engine bench: the batch paths are recorded as sibling rows; apply the
    # same within-run floor to feed_batch/feed and serve_batch/serve.
    if kind == "engine":
        for per, batch in (("feed", "feed_batch"), ("serve", "serve_batch")):
            if per in cur_rows and batch in cur_rows:
                per_v = cur_rows[per].get(field, 0.0)
                batch_v = cur_rows[batch].get(field, 0.0)
                if per_v > 0 and batch_v / per_v < min_batch_speedup:
                    failures.append(
                        f"{batch}/{per} ratio {batch_v / per_v:.3f} below "
                        f"floor {min_batch_speedup:.2f}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--min-ratio", type=float, default=0.4,
                    help="current/baseline throughput floor per row")
    ap.add_argument("--min-batch-speedup", type=float, default=0.9,
                    help="within-run batch vs per-instance floor")
    args = ap.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    failures = check(baseline, current, args.min_ratio,
                     args.min_batch_speedup)
    if failures:
        for f in failures:
            print(f"bench_gate: FAIL {f}", file=sys.stderr)
        return 1
    print(f"bench_gate: OK {args.current} vs {args.baseline} "
          f"(min-ratio {args.min_ratio}, "
          f"min-batch-speedup {args.min_batch_speedup})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
