"""Query engines: cost accounting behaviours."""

import numpy as np
import pytest

from repro.relational import DPRJQueryEngine, MGJoinQueryEngine
from repro.relational.operators import Aggregate
from repro.relational.table import Table


def make_table(name, rows, seed=0):
    rng = np.random.default_rng(seed)
    return Table(
        name=name,
        columns={
            "k": rng.integers(0, max(1, rows // 2), rows).astype(np.int64),
            "v": rng.uniform(0, 100, rows),
        },
    )


@pytest.fixture
def engine(dgx1):
    e = MGJoinQueryEngine(dgx1, logical_scale=1e6)
    e.begin()
    return e


def test_begin_resets_report(dgx1):
    engine = MGJoinQueryEngine(dgx1)
    engine.begin()
    engine.scan(make_table("a", 100))
    assert engine.report.total_seconds > 0
    engine.begin()
    ops = [op.operator for op in engine.report.operators]
    assert "scan" not in ops


def test_every_operator_charges_time(engine):
    table = engine.scan(make_table("t", 1000))
    joined = engine.join(table, make_table("u", 1000, seed=1), "k", "k")
    aggregated = engine.aggregate(
        joined, ("k",), (Aggregate("s", "sum", column="v"),)
    )
    engine.sort_limit(aggregated, ("s",), (False,), limit=5)
    kinds = {op.operator for op in engine.report.operators}
    assert {"scan", "join-compute", "aggregate", "sort"} <= kinds


def test_scan_cost_scales_with_logical_scale(dgx1):
    small = MGJoinQueryEngine(dgx1, logical_scale=1.0)
    large = MGJoinQueryEngine(dgx1, logical_scale=1e9)
    table = make_table("t", 1000)
    small.begin(); small.scan(table)
    large.begin(); large.scan(table)
    small_scan = [o for o in small.report.operators if o.operator == "scan"][0]
    large_scan = [o for o in large.report.operators if o.operator == "scan"][0]
    assert large_scan.seconds > small_scan.seconds


def test_join_shuffle_exposed_only_without_overlap(dgx1):
    left, right = make_table("l", 5000), make_table("r", 5000, seed=2)
    mg = MGJoinQueryEngine(dgx1, logical_scale=1e6)
    dprj = DPRJQueryEngine(dgx1, logical_scale=1e6)
    mg.begin(); mg.join(left, right, "k", "k")
    dprj.begin(); dprj.join(left, right, "k", "k")
    mg_shuffle = sum(
        o.seconds for o in mg.report.operators if o.operator == "join-shuffle"
    )
    dprj_shuffle = sum(
        o.seconds for o in dprj.report.operators if o.operator == "join-shuffle"
    )
    assert dprj_shuffle > mg_shuffle


def test_dprj_query_slower_than_mgjoin(dgx1):
    left, right = make_table("l", 5000), make_table("r", 5000, seed=2)
    mg = MGJoinQueryEngine(dgx1, logical_scale=1e6)
    dprj = DPRJQueryEngine(dgx1, logical_scale=1e6)
    mg.begin(); mg.join(left, right, "k", "k")
    dprj.begin(); dprj.join(left, right, "k", "k")
    assert dprj.report.total_seconds > mg.report.total_seconds


def test_single_gpu_engine_has_no_shuffle(dgx1):
    engine = MGJoinQueryEngine(dgx1, gpu_ids=(0,), logical_scale=1e6)
    engine.begin()
    engine.join(make_table("l", 2000), make_table("r", 2000, seed=3), "k", "k")
    assert not any(
        o.operator == "join-shuffle" for o in engine.report.operators
    )


def test_invalid_scale_rejected(dgx1):
    with pytest.raises(ValueError):
        MGJoinQueryEngine(dgx1, logical_scale=0.5)


def test_negative_charge_rejected(engine):
    with pytest.raises(ValueError):
        engine.report.charge("x", "y", -1.0)
