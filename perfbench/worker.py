"""One workload in one fresh process: set up, run, print one JSON line.

Started by run.py. Every worker draws and parses the whole pool, which is
the set-up that ``ready`` marks. An untraced worker then runs its share of
the items (``--share i/n``) one at a time for about ``--seconds`` and
reports each item's attempts, in reference time (see Speed). With
``--trace 1`` it instead runs one untraced reference pass and one traced
pass over the whole pool, replays the traced frame-condition checks per
condition, and reports layer costs.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HASH_PROBE_REPEATS = 5
RAISED = object()  # the result of an item whose library call raised
# Items whose first attempt is below this are repeated in every round, the
# slower ones one per round: a longer attempt already spans many of a shared
# machine's speed swings.
REPEAT_BELOW_S = 0.05
MIN_QUICK_ATTEMPTS = 3  # even when a slow item used up the share's time
# The reference work (Speed) is run every CALIBRATE_EVERY_S of CPU time;
# one run takes about REFERENCE_S.
CALIBRATE_EVERY_S = 0.01
REFERENCE_SIZE = 2000
REFERENCE_S = 0.0006
SETUP_REFERENCES = 5
RECENT_REFERENCES = 4  # an item with none run during it uses these


def _reference_work(size: int = REFERENCE_SIZE) -> int:
    """A fixed piece of pure-Python work of the library's kind: a dict keyed
    by tuples of ints and strings, built and walked."""
    table = {}
    for i in range(size):
        table[(i, str(i))] = i * 3
    total = 0
    for value in table.values():
        total += value
    return total


class Speed:
    """The machine's current speed, as the CPU time of the reference work.

    A shared virtual machine runs the same work 30 to 50% faster or slower
    from one few-second stretch to the next, in CPU time as well as in wall
    time. Inside ``with speed:`` a CPU-time timer (SIGPROF) runs the
    reference work every CALIBRATE_EVERY_S, during items as well, so the
    reference times follow those swings. An item's time is taken without
    the reference work run inside it, divided by the mean reference time
    over the item and the mean of the last RECENT_REFERENCES before it, and
    multiplied by REFERENCE_S: the item's time on a machine where the
    reference work takes exactly REFERENCE_S.
    """

    # thread CPU time: while a process-wide CPU-time timer is armed, the
    # process clock does not advance inside the timer's signal handler
    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.spent = 0.0   # time spent in the reference work
        self.runs = 0      # its runs, and their total time
        self.total = 0.0
        self.recent = deque(maxlen=RECENT_REFERENCES)
        self.measure()

    def measure(self) -> float:
        self.at = t0 = self.clock()
        _reference_work()
        self.last = self.clock() - t0
        self.spent += self.last
        self.runs += 1
        self.total += self.last
        self.recent.append(self.last)
        self.recent_mean = sum(self.recent) / len(self.recent)
        return self.last

    def _tick(self, signum, frame):
        if self.clock() - self.at >= CALIBRATE_EVERY_S / 2:  # not while measuring
            self.measure()

    def __enter__(self):
        self.handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self.handler)

    def _state(self) -> tuple:
        # the timer's signal waits while the clock and the totals are read
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        state = (self.clock(), self.spent, self.runs, self.total, self.recent_mean)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})
        return state

    def start(self) -> tuple:
        return self._state()

    def elapsed(self, mark: tuple) -> float:
        """Reference time since `mark` (from start), without the reference
        work run in between."""
        t1, spent1, runs1, total1, _ = self._state()
        t0, spent0, runs0, total0, recent0 = mark
        reference = (recent0 + total1 - total0) / (1 + runs1 - runs0)
        return (t1 - t0 - (spent1 - spent0)) * REFERENCE_S / reference


def _import_library():
    """Import condjust from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import condjust

    if Path(condjust.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"condjust resolved outside {src}: {condjust.__file__}")


def _run_item(item, clock, speed: Speed | None):
    """(seconds, result or RAISED, failure reason or None) for one item:
    seconds of reference time with a `speed`, else of `clock`."""
    mark = speed.start() if speed else clock()
    try:
        result = item.run()
    except Exception as exc:
        result = exc
    elapsed = speed.elapsed(mark) if speed else clock() - mark
    if isinstance(result, Exception):
        return elapsed, RAISED, "raised " + "".join(
            traceback.format_exception_only(type(result), result)).strip()
    try:
        reason = item.check(result)
    except Exception:
        reason = "known-answer check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    return elapsed, result, reason


class Tally:
    """Each item's attempts, its first verdict and its checks."""

    def __init__(self, records, items, clock=None, speed=None):
        self.records = records
        self.items = items
        self.clock = clock
        self.speed = speed
        self.times: dict[int, list[float]] = {}
        self.decided: dict[int, bool] = {}
        self.failed: dict[int, bool] = {}
        self.facts: dict[int, dict] = {}
        self.attempts = 0
        self.failed_attempts = 0
        self.failures: dict[str, str] = {}

    def run_pass(self, indices) -> list:
        """Attempt the items at `indices`, in order; their results."""
        import workloads

        results = []
        for i in indices:
            item = self.items[i]
            elapsed, result, reason = _run_item(item, self.clock, self.speed)
            first = i not in self.times
            self.times.setdefault(i, []).append(elapsed)
            self.attempts += 1
            if reason is not None:
                self.failed_attempts += 1
                self.failed[i] = True
                self.failures.setdefault(item.label, reason)
            if first:
                self.failed.setdefault(i, False)
                self.decided[i] = reason is None and bool(item.decided(result))
                self.facts[i] = ({} if result is RAISED
                                 else workloads.facts(self.records[i], result))
            results.append(result)
        return results

    def report(self) -> dict:
        return {
            "attempted": self.attempts, "failed": self.failed_attempts,
            "failures": self.failures,
            "items": [{"index": i, "times_s": self.times[i], "decided": self.decided[i],
                       "failed": self.failed[i], "facts": self.facts[i]}
                      for i in sorted(self.times)],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def run_untraced(records, items, indices, seconds: float, retry=()) -> dict:
    """One attempt at the items in `retry` (slow items of the previous
    worker, so that they run in two processes), one pass over the items at
    `indices`, then rounds until `seconds` are up: a pass over the quick
    items and one more attempt at the next slow item, in turn. The rounds
    spread each item's attempts over the run, and quick items get at least
    MIN_QUICK_ATTEMPTS. Garbage is collected before each pass, outside the
    timing."""
    with Speed() as speed:
        return _run_untraced(Tally(records, items, speed=speed), indices, seconds, retry)


def _run_untraced(tally, indices, seconds: float, retry) -> dict:
    begin = time.perf_counter()
    gc.collect()
    tally.run_pass(retry)
    tally.run_pass(indices)
    passes = 1
    best = {i: min(tally.times[i]) for i in indices}
    quick = [i for i in indices if best[i] < REPEAT_BELOW_S]
    slow = [i for i in indices if best[i] >= REPEAT_BELOW_S]
    quick_wall = sum(best[i] for i in quick)
    turn = 0
    while True:
        progressed = False
        if quick and (passes < MIN_QUICK_ATTEMPTS
                      or time.perf_counter() - begin + quick_wall <= seconds):
            start = time.perf_counter()
            gc.collect()
            tally.run_pass(quick)
            quick_wall = time.perf_counter() - start
            passes += 1
            progressed = True
        if slow:
            i = slow[turn % len(slow)]
            turn += 1
            if time.perf_counter() - begin + best[i] <= seconds:
                tally.run_pass([i])
                progressed = True
        if not progressed:
            break
    return {"passes": passes, "slow": slow, **tally.report()}


def run_traced(name, records, seed) -> dict:
    import condjust.syntax as sx
    import tracer as tr
    import workloads

    # reference: parse and one pass, untraced, with the known-answer checks
    t0 = time.perf_counter()
    items = workloads.build(records)
    parse_s = time.perf_counter() - t0
    tally = Tally(records, items, clock=time.perf_counter)  # wall, like the spans
    gc.collect()
    reference = tally.run_pass(range(len(items)))
    untraced_s = parse_s + sum(t for times in tally.times.values() for t in times)

    # traced: the same parse and pass inside spans; checks stay outside
    tracer = tr.Tracer(seed)
    traced = []
    gc.collect()
    tracer.install()
    try:
        wall0 = time.perf_counter()
        root = tracer.open("bench.pass")
        span = tracer.open("bench.parse")
        items = workloads.build(records)
        tracer.close(span)
        for item in items:
            span = tracer.open("bench.item")
            try:
                traced.append(item.run())
            except Exception:
                traced.append(RAISED)
            tracer.close(span)
        tracer.close(root)
        wall = time.perf_counter() - wall0
    finally:
        tracer.uninstall()

    for item, ref, got in zip(items, reference, traced):
        if ref is RAISED:
            continue  # already a failure of the reference pass
        if got is RAISED or item.verdict(ref) != item.verdict(got):
            tally.failed_attempts += 1
            tally.failures.setdefault(item.label, "traced pass reached another verdict")

    # the untraced figure is the faster of the reference and a second,
    # warm untraced parse and pass, so first-call costs do not count
    gc.collect()
    t0 = time.perf_counter()
    for item in workloads.build(records):
        try:
            item.run()
        except Exception:
            pass  # reported by the reference pass
    untraced_s = min(untraced_s, time.perf_counter() - t0)

    conditions = tr.replay_conditions(tracer)
    universe = list(sx.closure(workloads.input_formulas(records)))
    hash_runs = []
    for _ in range(HASH_PROBE_REPEATS):
        h0 = time.perf_counter()
        for f in universe:
            hash(f)
        hash_runs.append(time.perf_counter() - h0)

    selfs = tracer.self_times()
    metrics: dict[str, float] = {}
    layer_self = 0.0
    for span_name in tr.span_names():
        calls, own = selfs.get(span_name, (0, 0.0))
        metrics[f"{span_name}.calls"] = calls
        metrics[f"{span_name}.self_s"] = own
        layer_self += own
    metrics["syntax.hash_s"] = statistics.median(hash_runs)
    for cid, seconds in conditions.items():
        metrics[f"kripke_models.cond.{cid}.s"] = seconds
    metrics.update(tracer.counts)
    checks = tracer.counts["falsifier.condition_checks"]
    metrics["falsifier.useful_ratio"] = (
        tracer.counts["falsifier.found"] / checks if checks else 0.0)
    bench_self = sum(selfs.get(n, (0, 0.0))[1] for n in ("bench.pass", "bench.parse", "bench.item"))
    metrics["bench.self_s"] = bench_self
    metrics["trace.wall_s"] = wall
    metrics["trace_overhead_ratio"] = wall / untraced_s

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{name}.npz")
    return {"passes": 1, **tally.report(), "metrics": metrics,
            "accounting": {"layer_self_s": layer_self, "bench_self_s": bench_self,
                           "traced_wall_s": wall, "untraced_s": untraced_s,
                           "spans": len(tracer.start),
                           "replayed_condition_calls": len(tracer.condition_calls),
                           "traced_condition_calls": tracer.condition_calls_seen}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--share", default="0/1", help="i/n: run the i-th of n shares")
    ap.add_argument("--retry", default="", help="comma-separated items to attempt first")
    args = ap.parse_args(argv)

    speed = Speed(time.perf_counter)
    started = [speed.measure() for _ in range(SETUP_REFERENCES)]
    _import_library()
    import workloads

    records = workloads.generate(args.workload, args.seed)
    items = workloads.build(records)
    ready = time.monotonic()
    finished = [speed.measure() for _ in range(SETUP_REFERENCES)]
    reference = (statistics.median(started) + statistics.median(finished)) / 2
    out = {"digest": workloads.digest(records), "kinds": [rec[0] for rec in records],
           "ready": ready, "setup_scale": REFERENCE_S / reference}
    if args.trace:
        out.update(run_traced(args.workload, records, args.seed))
    else:
        index, count = map(int, args.share.split("/"))
        retry = [int(i) for i in args.retry.split(",") if i]
        out.update(run_untraced(records, items, workloads.share(records, index, count),
                                args.seconds, retry))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
