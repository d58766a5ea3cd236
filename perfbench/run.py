"""condjust benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its src/.
The untraced run deals the workload's items out to WORKERS fresh worker
processes (worker.py), run one after another, each for an equal part of
``--seconds``: every worker sets up the whole pool, so each one also times
set-up, and a worker process that happens to run fast or slow moves only
its share of the items. The traced run uses one worker for the whole pool.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Workloads,
metrics and what each layer metric should move are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("crosscheck", "proofs", "kripke_search", "soundness")
WORKERS = 3
RUN_TIMEOUT_S = 170
# A worker's slow items up to this long are attempted again by the next
# worker, so a heavy item's time does not rest on a single process.
RETRY_UP_TO_S = 3.0

UNITS = {
    "items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_p90": "ms",
    "decided_ratio": "ratio", "ok_ratio": "ratio", "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".self_s", ".s", "_s")):
        return "s"
    return "count"


def _worker(args, extra: list[str], seconds: float, deadline: float) -> tuple[dict, float]:
    """Run one worker; (its JSON result, seconds from spawn to first item,
    in the worker's reference time)."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, (result["ready"] - spawned) * result["setup_scale"]


def _merge(reports) -> list[dict]:
    """One entry per item: its time to verdict, the median of its attempts
    over the workers that ran it; failed if any attempt failed; verdict
    facts from its first run."""
    merged: dict[int, dict] = {}
    for report in reports:
        for it in report:
            seen = merged.setdefault(it["index"], dict(it, times_s=[]))
            seen["times_s"] += it["times_s"]
            seen["failed"] = seen["failed"] or it["failed"]
    for it in merged.values():
        it["time_s"] = statistics.median(it.pop("times_s"))
    return [merged[i] for i in sorted(merged)]


def end_to_end(items: list[dict], setups: list[float], rss: list[float]) -> dict:
    times = [it["time_s"] for it in items]
    n = len(times)
    return {
        "items_per_s": n / sum(times),
        "item_ms_p50": statistics.median(times) * 1e3,
        "item_ms_p90": statistics.quantiles(times, n=10)[8] * 1e3,
        "decided_ratio": sum(it["decided"] for it in items) / n,
        "ok_ratio": 1 - sum(it["failed"] for it in items) / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
    }


def properties(kinds: list[str], items: list[dict]) -> dict:
    """Input properties from each item's first verdict (workloads.facts)."""
    facts = [it["facts"] for it in items]
    props: dict = {"items": dict(Counter(kinds))}
    for key in ("no_countermodel", "exhausted", "inconclusive", "open"):
        flags = [f[key] for f in facts if key in f]
        if flags:
            props[f"{key}_share"] = sum(flags) / len(flags)
    sizes = sorted(f["space"] for f in facts if "space" in f)
    if sizes:
        hist = Counter(int(math.log2(s)) for s in sizes)
        props["search_space_log2_histogram"] = {str(k): hist[k] for k in sorted(hist)}
        props["search_space_quartiles"] = statistics.quantiles(sizes, n=4)
        props["full_walk_models"] = sum(f["space"] for f in facts
                                        if "space" in f and f["no_countermodel"])
    return props


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "condjust" / "__init__.py").is_file():
        print(f"no condjust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    shares = 1 if args.trace else WORKERS
    runs = []
    retry: list[int] = []
    try:
        for i in range(shares):
            result, setup = _worker(
                args, ["--share", f"{i}/{shares}", "--retry", ",".join(map(str, retry))],
                args.seconds / shares, deadline)
            runs.append((result, setup))
            best = {it["index"]: min(it["times_s"]) for it in result["items"]}
            retry = [j for j in result.get("slow", ()) if best[j] <= RETRY_UP_TO_S]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    results = [r for r, _ in runs]
    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        print("workers generated different inputs from one seed", file=sys.stderr)
        return 1
    items = _merge(r["items"] for r in results)
    kinds = results[0]["kinds"]
    if [it["index"] for it in items] != list(range(len(kinds))):
        print("the workers' shares do not cover the pool exactly", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = {k: v for r in results for k, v in r["failures"].items()}

    print(f"workload {args.workload}  seed {args.seed}  inputs {len(kinds)}  "
          f"sha256 {digests.pop()}")
    print("input properties " + json.dumps(properties(kinds, items), sort_keys=True))
    print(f"passes {[r['passes'] for r in results]}  attempted {attempted}  "
          f"failed {failed}  fail_ratio {failed / attempted:.6f}")
    for label, reason in sorted(failures.items()):
        print(f"FAILED {label}: {reason}")
    if args.trace:
        metrics = results[0]["metrics"]
        acc = results[0]["accounting"]
        share = (acc["layer_self_s"] + acc["bench_self_s"]) / acc["traced_wall_s"]
        print("trace accounting " + json.dumps(acc, sort_keys=True)
              + f"  layer+bench self / wall = {share:.4f}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(items, [setup for _, setup in runs],
                             [r["peak_rss_mb"] for r in results])
        units = UNITS
    for name in sorted(metrics):
        print(f"  {name:44s} {metrics[name]:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
