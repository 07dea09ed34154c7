"""Self-tests of the benchmark: seeded inputs, tracer arithmetic, metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGEST_OPS = 300


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(7, tmp_path).digest(DIGEST_OPS)
    assert cls(7, tmp_path).digest(DIGEST_OPS) == first
    if name != "verify-suite":  # its inputs are fixed
        assert cls(8, tmp_path).digest(DIGEST_OPS) != first


def test_stratified_prefix_keeps_shares():
    import random

    items = [("a", i) for i in range(300)] + [("b", i) for i in range(100)]
    order = workloads.stratified_order(items, lambda x: x[0], random.Random(3))
    assert sorted(order) == sorted(items)
    for prefix in (40, 100, 201):
        share = sum(x[0] == "b" for x in order[:prefix]) / prefix
        assert abs(share - 0.25) <= 1 / prefix + 1e-9


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _call_tree(tr, clock):
    """root: 5 own, mid, 6 own; mid: 1 own, leaf(2), 3 own, leaf(4)."""

    def leaf(d):
        clock.t += d

    leaf_t = tr.wrap("leaf", leaf)

    def mid():
        clock.t += 1
        leaf_t(2)
        clock.t += 3
        leaf_t(4)

    mid_t = tr.wrap("mid", mid)

    def root():
        clock.t += 5
        mid_t()
        clock.t += 6

    tr.wrap("root", root)()


def test_self_time_on_synthetic_tree():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    _call_tree(tr, clock)
    want = {"root": 11.0, "mid": 4.0, "leaf": 6.0}
    assert tr.self_s == want
    assert tr.calls == {"root": 1, "mid": 1, "leaf": 2}
    spans = tr.spans()
    assert [(s[0], s[3]) for s in spans] == [("root", -1), ("mid", 0), ("leaf", 1), ("leaf", 1)]
    assert tracer.self_times(spans) == want
    assert sum(want.values()) == clock.t


def test_paused_tracer_records_nothing():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    tr.paused = True
    _call_tree(tr, clock)
    assert tr.calls == {"root": 0, "mid": 0, "leaf": 0} and tr.spans() == []


def test_written_spans_read_back(tmp_path):
    import numpy as np

    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    _call_tree(tr, clock)
    tr.write(tmp_path / "spans.npz")
    doc = np.load(tmp_path / "spans.npz")
    names = [str(doc["names"][i]) for i in doc["name"]]
    got = list(zip(names, doc["start"].tolist(), doc["end"].tolist(),
                   doc["parent"].tolist(), doc["request"].tolist()))
    assert got == tr.spans() and int(doc["dropped"]) == 0


def test_self_time_with_recursion_and_full_store():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock, max_spans=2)

    def rec(depth):
        clock.t += 1
        if depth:
            rec_t(depth - 1)
        clock.t += 1

    rec_t = tr.wrap("rec", rec)
    rec_t(3)
    assert tr.calls["rec"] == 4 and tr.self_s["rec"] == 8.0
    assert len(tr.spans()) == 2 and tr.dropped == 2


def test_self_times_takes_union_of_overlapping_children():
    spans = [("p", 0.0, 10.0, -1, 0), ("c", 1.0, 4.0, 0, 0), ("c", 3.0, 6.0, 0, 0),
             ("c", 9.0, 12.0, 0, 0)]
    got = tracer.self_times(spans)
    assert got["p"] == pytest.approx(10 - 5 - 1)


def test_install_wraps_every_binding_and_restores_them():
    import padwhit
    from padwhit import characters, cli, engine, representations, verify

    holders = {  # every module that binds the name
        "epsilon_factor": (padwhit, characters, engine, verify),
        "characters_mod": (padwhit, characters, engine, representations, verify),
        "sup_norm": (padwhit, engine, verify, cli),
    }
    originals = {name: getattr(characters if name != "sup_norm" else engine, name)
                 for name in holders}
    twist = representations.PrincipalSeries.twist_data
    tr = tracer.Tracer()
    tr.install()
    try:
        for name, modules in holders.items():
            bound = {getattr(m, name) for m in modules}
            assert len(bound) == 1 and originals[name] not in bound
        assert representations.PrincipalSeries.twist_data is not twist
        rep = padwhit.standard_family(3, 2)[0]
        engine.sup_norm(rep)
    finally:
        tr.uninstall()
    assert tr.calls["engine.sup_norm"] == 1
    assert tr.calls["engine.coefficient_table"] > 0
    assert tr.calls["representations.twist_data"] > 0
    for name, modules in holders.items():
        assert all(getattr(m, name) is originals[name] for m in modules)
    assert representations.PrincipalSeries.twist_data is twist


def test_speed_factor_uses_the_window_median():
    speed = run.Speedometer()
    speed.at = [0.0, 0.5, 1.0, 5.0, 5.5]
    speed.kernel_s = [1.0, 2.0, 4.0, 8.0, 8.0]
    assert speed.factor(0.4, 0.6) == run.REFERENCE_KERNEL_S / 2.0
    assert speed.factor(5.2, 5.2) == run.REFERENCE_KERNEL_S / 8.0
    assert speed.factor(20.0, 20.0) == run.REFERENCE_KERNEL_S / 4.0  # no sample near: run median
    assert speed.factor(0.2, 5.3) == run.REFERENCE_KERNEL_S / 4.0  # a long op: all samples


def test_timer_samples_inside_a_long_operation():
    speed = run.Speedometer()
    with speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * run.SPEED_EVERY_S:
            pass
    assert len(speed.at) >= 3 and all(start <= t for t in speed.at)
    assert 0 < speed.spent < 5 * run.SPEED_EVERY_S


def test_printed_metrics_match_benchmark_json():
    class Fake:
        tail, unit_name, labels = 0.5, "ops", {}

    e2e = run.end_to_end(Fake(), [(0.001, 0.002, 1), (0.002, 0.004, 1)], [0.5, 0.7, 0.6], 64.0)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert e2e["ops_per_s"][:3] == (2 / 0.006, "1/s", 2 / 0.003)
    assert e2e["setup_s"][:3] == (0.6, "s", 0.6)
    assert e2e["peak_rss_mb"][:3] == (64.0, "MB", 64.0)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.metric_specs()
    assert all(tracer.prediction(name) for name, _, _ in tracer.metric_specs())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_max_ops_runs_exactly_that_many_whatever_the_seconds():
    class Endless(workloads.Workload):
        max_ops = 1

        def inputs(self):
            while True:
                yield 0

        def run(self, inp):
            return inp

        def check(self, inp, out):
            return None

    elapsed, _, _, kept, failures, rss_mb = run.measure(Endless(), 1e9, run.Speedometer())
    assert len(elapsed) == 1 and len(kept) == 1 and not failures and rss_mb > 0
