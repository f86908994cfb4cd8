"""The six TPC-H query plans: engine-independent exact answers."""

import numpy as np
import pytest

from repro.relational import (
    DPRJQueryEngine,
    MGJoinQueryEngine,
    OmnisciCpuEngine,
    OmnisciGpuEngine,
)
from repro.relational.operators import hash_join
from repro.relational.tpch import QUERIES, generate_tpch, run_query
from repro.relational.tpch.dates import date_to_days


@pytest.fixture(scope="module")
def db():
    return generate_tpch(scale_factor=0.01, seed=2)


@pytest.fixture(scope="module")
def engine(dgx1_module):
    return MGJoinQueryEngine(dgx1_module, logical_scale=1.0)


@pytest.fixture(scope="module")
def dgx1_module():
    from repro.topology import dgx1_topology

    return dgx1_topology()


def test_all_queries_run(engine, db):
    for name in QUERIES:
        outcome = run_query(name, engine, db)
        assert not outcome.is_na
        assert outcome.table is not None
        assert outcome.seconds > 0


def test_q3_matches_reference(engine, db):
    """Cross-check Q3's top-1 revenue against a direct numpy evaluation."""
    outcome = run_query("q3", engine, db)
    segment = db.customer.encode("c_mktsegment", "BUILDING")
    cutoff = date_to_days(1995, 3, 15)
    cust = db.customer.take(db.customer["c_mktsegment"] == segment)
    orders = db.orders.take(db.orders["o_orderdate"] < cutoff)
    li = db.lineitem.take(db.lineitem["l_shipdate"] > cutoff)
    joined = hash_join(
        hash_join(cust, orders, "c_custkey", "o_custkey"),
        li, "o_orderkey", "l_orderkey",
    )
    revenue = joined["l_extendedprice"] * (1 - joined["l_discount"])
    best = 0.0
    for key in np.unique(joined["l_orderkey"]):
        best = max(best, revenue[joined["l_orderkey"] == key].sum())
    table = outcome.table
    assert table.num_rows <= 10
    assert table["revenue"][0] == pytest.approx(best)
    # Sorted descending by revenue.
    assert all(
        a >= b for a, b in zip(table["revenue"], table["revenue"][1:])
    )


def test_q5_revenue_positive_and_grouped_by_nation(engine, db):
    outcome = run_query("q5", engine, db)
    table = outcome.table
    assert table.num_rows <= 25
    assert np.all(table["revenue"] > 0)
    names = [table.dictionaries["n_name"][code] for code in table["n_name"]]
    assert len(set(names)) == table.num_rows


def test_q10_limit_and_order(engine, db):
    outcome = run_query("q10", engine, db)
    table = outcome.table
    assert table.num_rows == 20
    revenues = table["revenue"].tolist()
    assert revenues == sorted(revenues, reverse=True)


def test_q12_counts_add_up(engine, db):
    outcome = run_query("q12", engine, db)
    table = outcome.table
    modes = [table.dictionaries["l_shipmode"][code] for code in table["l_shipmode"]]
    assert sorted(modes) == ["MAIL", "SHIP"]
    # high + low = all qualifying lineitems; verify against direct count.
    start, end = date_to_days(1994, 1, 1), date_to_days(1995, 1, 1)
    li = db.lineitem
    mail = db.lineitem.encode("l_shipmode", "MAIL")
    ship = db.lineitem.encode("l_shipmode", "SHIP")
    mask = (
        ((li["l_shipmode"] == mail) | (li["l_shipmode"] == ship))
        & (li["l_commitdate"] < li["l_receiptdate"])
        & (li["l_shipdate"] < li["l_commitdate"])
        & (li["l_receiptdate"] >= start)
        & (li["l_receiptdate"] < end)
    )
    total = table["high_line_count"].sum() + table["low_line_count"].sum()
    assert total == int(mask.sum())


def test_q14_promo_share_in_range(engine, db):
    outcome = run_query("q14", engine, db)
    share = outcome.table["promo_revenue"][0]
    # PROMO is 1 of 6 type prefixes: expect roughly 16% +- noise.
    assert 5.0 < share < 30.0


def test_q19_matches_reference(engine, db):
    outcome = run_query("q19", engine, db)
    value = outcome.table["revenue"][0]
    assert value >= 0.0
    # Recompute directly.
    li, part = db.lineitem, db.part
    joined = hash_join(li, part, "l_partkey", "p_partkey")
    air = db.lineitem.encode("l_shipmode", "AIR")
    reg = db.lineitem.encode("l_shipmode", "REG AIR")
    person = db.lineitem.encode("l_shipinstruct", "DELIVER IN PERSON")
    base = (
        ((joined["l_shipmode"] == air) | (joined["l_shipmode"] == reg))
        & (joined["l_shipinstruct"] == person)
    )
    total = 0.0
    from repro.relational.tpch.queries import _Q19_BRANCHES, _dict_mask

    disjunction = np.zeros(joined.num_rows, dtype=bool)
    for brand, containers, lo, hi, size in _Q19_BRANCHES:
        code = joined.encode("p_brand", brand)
        cmask = _dict_mask(joined, "p_container", lambda v, c=containers: v in c)
        disjunction |= (
            (joined["p_brand"] == code)
            & cmask
            & (joined["l_quantity"] >= lo)
            & (joined["l_quantity"] <= hi)
            & (joined["p_size"] <= size)
            & (joined["p_size"] >= 1)
        )
    mask = base & disjunction
    revenue = joined["l_extendedprice"] * (1 - joined["l_discount"])
    total = revenue[mask].sum()
    assert value == pytest.approx(total)


def test_engines_agree_on_answers(dgx1_module, db):
    """All engines share operators, so answers must be identical."""
    reference = None
    for engine in (
        MGJoinQueryEngine(dgx1_module),
        DPRJQueryEngine(dgx1_module),
        OmnisciCpuEngine(dgx1_module),
    ):
        outcome = run_query("q14", engine, db)
        value = outcome.table["promo_revenue"][0]
        if reference is None:
            reference = value
        assert value == pytest.approx(reference)


def test_unknown_query_rejected(engine, db):
    with pytest.raises(KeyError):
        run_query("q99", engine, db)
