"""Self-test of the benchmark's tracer and inputs.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that the tracer restores every name it patches and that untraced
runs never install it, that the reference-time timer samples inside long
items and is switched off afterwards, that a seed always yields the same
inputs, and that the layers' self times plus the benchmark's own time add
up to the traced wall time.
"""

import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import condjust.falsifier as fz  # noqa: E402
import condjust.kripke_models as km  # noqa: E402
import condjust.syntax as sx  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _namespace():
    return {(mod.__name__, attr): value
            for mod in tr._package_modules() for attr, value in vars(mod).items()}


def _same(before, after):
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


def test_install_patches_every_lookup_name_and_uninstall_restores_them():
    before = _namespace()
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert fz.kripke_eval is not before[("condjust.falsifier", "kripke_eval")]
        assert fz.check_conditions is not before[("condjust.falsifier", "check_conditions")]
        assert km.eval is not before[("condjust.kripke_models", "eval")]
        assert sx.print_formula is not before[("condjust.syntax", "print_formula")]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert _same(before, _namespace())


def test_untraced_run_never_installs_the_tracer(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tr.Tracer, "install", refuse)
    before = _namespace()
    records = workloads.generate("crosscheck", 5)[20:40]
    out = worker.run_untraced(records, workloads.build(records), range(20), seconds=0.0)
    assert len(out["items"]) == 20 and out["failed"] == 0
    assert out["attempted"] == 20 * worker.MIN_QUICK_ATTEMPTS
    assert _same(before, _namespace())


def test_speed_samples_inside_long_items_and_restores_the_timer():
    before = signal.getsignal(signal.SIGPROF)
    with worker.Speed() as speed:
        mark = speed.start()
        _, spent0, runs0, total0, recent0 = mark
        t0 = time.thread_time()
        while time.thread_time() - t0 < 0.1:
            pass
    raw = time.thread_time() - t0  # the timer is off: nothing more is sampled
    elapsed = speed.elapsed(mark)
    inside = speed.runs - runs0
    assert inside >= 5
    reference = (recent0 + speed.total - total0) / (1 + inside)
    own = elapsed * reference / worker.REFERENCE_S
    assert own == pytest.approx(raw - (speed.spent - spent0), abs=1e-3)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_digest(name):
    first = workloads.digest(workloads.generate(name, 3))
    assert workloads.digest(workloads.generate(name, 3)) == first
    assert workloads.digest(workloads.generate(name, 4)) != first


@pytest.mark.parametrize("name", ["crosscheck", "soundness"])
def test_shares_cover_the_pool_once_and_keep_models_with_instances(name):
    records = workloads.generate(name, 3)
    shares = [workloads.share(records, i, 5) for i in range(5)]
    assert sorted(i for s in shares for i in s) == list(range(len(records)))
    for s in shares:
        for i in s:
            if records[i][0] == "instance":
                j = max(k for k in range(i) if records[k][0] == "models")
                assert j in s


def test_recursive_calls_share_one_span():
    tracer = tr.Tracer()
    f = sx.parse_formula("~(p ~> (q ~> (p & ~(q -> p))))", sx.Dialect.JRC)
    tracer.install()
    try:
        sx.print_formula(f)
    finally:
        tracer.uninstall()
    assert tracer.self_times()["syntax.print_formula"][0] == 1


def _first_dialect(records):
    """The first models record and its instances: a self-contained slice."""
    end = next(i for i in range(1, len(records)) if records[i][0] == "models")
    return records[:end]


@pytest.mark.parametrize("name,window", [
    ("crosscheck", lambda records: records[20:50]),
    ("kripke_search", lambda records: records[:30]),
    ("soundness", _first_dialect),
])
def test_self_times_add_up_to_traced_wall_time(name, window):
    records = window(workloads.generate(name, 2))
    before = _namespace()
    out = worker.run_traced(name, records, seed=2)
    assert _same(before, _namespace())
    assert out["failed"] == 0, out["failures"]
    acc = out["accounting"]
    total = acc["layer_self_s"] + acc["bench_self_s"]
    assert total == pytest.approx(acc["traced_wall_s"], rel=0.01)
    metrics = out["metrics"]
    for span in tr.span_names():
        assert f"{span}.calls" in metrics and f"{span}.self_s" in metrics
    for cid in tr.CONDITION_IDS:
        assert f"kripke_models.cond.{cid}.s" in metrics
    if name == "soundness":
        assert metrics["kripke_models.check_conditions.calls"] > 0
        assert metrics["falsifier.sample_models.calls"] == 1
    if name == "kripke_search":
        assert metrics["falsifier.models_built"] > 0
        assert metrics["kripke_models.eval.calls"] > 0
