"""Tests for the benchmark's own code: spans, the operation loop, names."""

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def ticking_clock(step: float = 1.0):
    counter = itertools.count()
    return lambda: next(counter) * step


def test_self_time_is_duration_minus_children_coverage():
    spans = [
        harness.Span(0, "consistency", "fit", 0.0, 10.0),
        harness.Span(0, "sdp", "a", 1.0, 3.0, parent=0),
        harness.Span(0, "sdp", "b", 2.0, 5.0, parent=0),   # overlaps a
        harness.Span(0, "sdp", "c", 9.0, 12.0, parent=0),  # runs past the parent
        harness.Span(0, "x", "grandchild", 2.5, 2.75, parent=2),
    ]
    selfs = harness.self_times(spans)
    # children cover [1, 5] and [9, 10] of the parent
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 0.25)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(0.25)


def test_tracer_nests_spans_and_disabled_tracer_records_nothing():
    tr = harness.Tracer(enabled=True, clock=ticking_clock())
    tr.begin_op(7)
    with tr.span("consistency", "fit"):
        with tr.span("sdp", "solve"):
            pass
    with tr.span("sos", "solve"):
        pass
    assert [(s.op, s.layer, s.parent) for s in tr.spans] == [
        (7, "consistency", None), (7, "sdp", 0), (7, "sos", None)]
    assert all(s.end > s.start for s in tr.spans)
    assert tr.overhead_s[7] > 0.0

    off = harness.Tracer(enabled=False)
    off.begin_op(0)
    with off.span("sdp", "solve"):
        pass
    assert off.spans == []


def test_raising_operation_is_counted_failed_not_skipped():
    def op(i):
        if i == 1:
            raise ValueError("boom")
        return i

    def check(i, value):
        if value == 3:
            raise KeyError("bad check")
        return [], {"value": value}

    calls = []
    outcomes = harness.run_ops(op, check, seconds=10.0, clock=ticking_clock(),
                               between=lambda: calls.append(None))
    assert [o.index for o in outcomes] == [0, 1, 2, 3]
    assert len(calls) == len(outcomes) + 1
    assert outcomes[1].failures == ["raised ValueError: boom"]
    assert outcomes[3].failures and "KeyError" in outcomes[3].failures[0]
    assert not outcomes[0].failures and not outcomes[2].failures
    assert outcomes[2].facts == {"value": 2}


def test_at_least_one_operation_runs():
    outcomes = harness.run_ops(lambda i: i, lambda i, v: ([], {}), seconds=0.0,
                               clock=ticking_clock())
    assert len(outcomes) == 1


def test_solve_recorder_records_caller_and_restores():
    calls = []

    def solve(prob, opts=None):
        calls.append(prob)
        return "solution"

    mod = types.SimpleNamespace(solve_sdp=solve)
    tr = harness.Tracer(enabled=True, clock=ticking_clock())
    tr.begin_op(0)
    records = []
    restore = harness.install_solve_recorder({"sos": mod}, tr, records)
    assert mod.solve_sdp("problem") == "solution"
    restore()
    assert mod.solve_sdp is solve
    assert [(r.caller, r.prob, r.sol) for r in records] == [("sos", "problem", "solution")]
    assert [s.layer for s in tr.spans] == ["sdp"]


def test_behaviour_diff_tolerances():
    ref = {"iterations": 37, "objective": 5.47303950, "blocks": [25, 45]}
    assert workloads.behaviour_diff(ref, {"iterations": 37, "objective": 5.47303950 * (1 + 5e-8),
                                          "blocks": [25, 45]}) == []
    diffs = workloads.behaviour_diff(ref, {"iterations": 38, "objective": 5.4731,
                                           "blocks": [25]})
    assert len(diffs) == 3


def test_metric_names_and_units():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert harness.METRIC_NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert set(workloads.SPAN_METRICS) <= set(workloads.PER_LAYER)


def one_row_problem(rhs: float):
    from issynth.sdp import SdpProblem
    prob = SdpProblem()
    blk = prob.add_block(1)
    prob.add_row([(blk, 0, 0, 1.0)], rhs=rhs)
    return prob


def test_solve_checks_allow_only_the_first_margin_fallback():
    import numpy as np
    from issynth.sdp import SdpSolution

    infeasible = SdpSolution(status="infeasible", objective=None)
    records = [harness.SolveRecord("consistency", one_row_problem(1.0 - 1e-6), infeasible),
               harness.SolveRecord("consistency", one_row_problem(1.0 - 1e-8), infeasible),
               harness.SolveRecord("sos", one_row_problem(1.0 - 1e-6), infeasible)]
    solves, failures = workloads.summarize_solves(records)
    assert [s["fallback"] for s in solves] == [True, False, False]
    assert len(failures) == 2 and all("ended infeasible" in f for f in failures)
    assert workloads.solve_values(solves)["consistency.fallbacks"] == 1

    def solved(x: float):
        return SdpSolution(status="optimal", objective=0.0, blocks=[np.array([[x]])],
                           free=np.zeros(0), y=np.zeros(1))

    records = [harness.SolveRecord("sos", one_row_problem(0.5), solved(0.5)),
               harness.SolveRecord("sos", one_row_problem(0.5), solved(0.25))]
    solves, failures = workloads.summarize_solves(records)
    assert [s["valid"] for s in solves] == [True, False]
    assert failures == ["sdp solve 1 (sos) fails validate_solution"]
    assert workloads.solve_values(solves)["sdp.valid"] == 0.5
