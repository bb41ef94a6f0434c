"""Tests of the benchmark itself: span arithmetic, failure accounting, the
calibrated pass time, and repeatable counts from the traced run.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import catmin.minimize  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, _wrap, instrument, layer_metrics  # noqa: E402
from workloads import Failure, Op, verdict  # noqa: E402


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    inner = _wrap(lambda: None, t, span="inner")
    outer = _wrap(lambda: (inner(), inner()), t, span="outer")
    outer()
    assert t.self_seconds() == {"outer": 7.0, "inner": 3.0}
    assert t.calls() == {"outer": 1, "inner": 2}
    assert [span[3] for span in t.spans] == [-1, 0, 0]


def test_span_closes_and_error_counts_when_call_raises():
    ticks = iter([0.0, 2.0])
    t = Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")

    wrapped = _wrap(boom, t, span="boom", errors="boom.errors")
    try:
        wrapped()
    except ValueError:
        pass
    assert t.self_seconds() == {"boom": 2.0}
    assert t.counts["boom.errors"] == 1


def test_each_failure_counts_once():
    def raises():
        raise RuntimeError("no verdict")

    def exit_code(code):
        return None if code == 0 else Failure("exit", f"exit {code}")

    ops = [
        Op("raise", raises, lambda out: None),
        Op("wrong_verdict", lambda: False, lambda got: verdict(got, True, "saddle")),
        Op("wrong_exit", lambda: 1, exit_code),
        Op("false_certificate", lambda: True, lambda got: verdict(got, False, "saddle")),
        Op("fine", lambda: 0, exit_code),
    ]
    done = run.run_pass(ops)
    assert len(done.times) == 5
    assert [(name, f.kind) for name, f in done.failures] == [
        ("raise", "raised"), ("wrong_verdict", "verdict"), ("wrong_exit", "exit"), ("false_certificate", "verdict")]
    # only the false certificate is a wrong answer a user would not notice
    assert [f.claimed for _, f in done.failures] == [False, False, False, True]


def test_calibrated_pass_divides_out_the_machine_speed():
    ref = run.REF_LOOP_S
    # the second pass ran on a machine twice as slow: ops and loops alike
    passes = [run.Pass(3.0, [1.0, 2.0], [], refs=[ref, ref]),
              run.Pass(6.0, [2.0, 4.0], [], refs=[2 * ref, 2 * ref]),
              run.Pass(5.0, [1.0, 4.0], [], refs=[ref, ref])]
    # per operation, the median of 1, 1, 1 and of 2, 2, 4
    assert run.calibrated_pass(passes) == 3.0


def _traced_counts(ops):
    t = Tracer()
    restore = instrument(t)
    try:
        done = run.run_pass(ops, t)
    finally:
        restore()
    assert not done.failures
    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    return {k: v for k, v in layer_metrics(t).items() if units[k] != "s"}


def test_traced_counts_repeat_exactly(tmp_path):
    wanted = {"key_lemma_8x8", "saddle_grid_n16", "fields_n32", "metrics_acc1020_n13"}
    ops = [op for name in ("keylemma_grid", "saddle_fields", "metrics_cli")
           for op in workloads.build(name, 7, str(tmp_path)) if op.name in wanted]
    assert len(ops) == len(wanted)
    first, second = _traced_counts(ops), _traced_counts(ops)
    assert first == second
    for name in ("minimize.hull.calls", "saddle.planes", "induced.connecting.calls", "mesh.dijkstra.calls"):
        assert first[name] > 0, name
    # a saddle verdict tests every candidate plane
    assert first["saddle.check_plane.calls"] == first["saddle.planes"]
    assert catmin.minimize.min_norm_hull_point.__module__ == "catmin.minimize"
    assert not hasattr(catmin.minimize.min_norm_hull_point, "__wrapped__")


def test_benchmark_json_matches_the_code(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = [[name, unit, better] for name, unit, better, _ in LAYER_METRICS] + [["trace.overhead_s", "s", "lower"]]
    assert [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] == layers
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    for w in spec["workloads"]:
        # an odd number of operations makes op_p50_s the time of one operation
        assert len(workloads.build(w["name"], 0, str(tmp_path))) % 2 == 1, w["name"]
