"""Columnar tables and dictionary encoding."""

import numpy as np
import pytest

from repro.relational.table import Table


@pytest.fixture
def table():
    return Table(
        name="t",
        columns={
            "k": np.array([1, 2, 3, 4], dtype=np.int32),
            "v": np.array([1.0, 2.0, 3.0, 4.0]),
            "mode": np.array([0, 1, 0, 2], dtype=np.int8),
        },
        dictionaries={"mode": ["AIR", "SHIP", "MAIL"]},
    )


def test_num_rows(table):
    assert table.num_rows == 4


def test_ragged_columns_rejected():
    with pytest.raises(ValueError):
        Table("bad", {"a": np.arange(3), "b": np.arange(4)})


def test_row_width(table):
    assert table.row_width(("k", "mode")) == 4 + 1
    assert table.row_width() == 4 + 8 + 1


def test_total_bytes(table):
    assert table.total_bytes == 4 * (4 + 8 + 1)


def test_encode_decode(table):
    assert table.encode("mode", "SHIP") == 1
    assert table.encode("mode", "TRUCK") == -1
    assert [table.dictionaries["mode"][c] for c in table["mode"][:2]] == [
        "AIR",
        "SHIP",
    ]


def test_select_keeps_dictionaries(table):
    projected = table.select(("k", "mode"))
    assert projected.column_names == ("k", "mode")
    assert "mode" in projected.dictionaries


def test_select_unknown_column(table):
    with pytest.raises(KeyError):
        table.select(("nope",))


def test_take_mask(table):
    subset = table.take(table["k"] > 2)
    assert subset.num_rows == 2
    assert subset["v"].tolist() == [3.0, 4.0]


def test_take_indices(table):
    subset = table.take(np.array([3, 0]))
    assert subset["k"].tolist() == [4, 1]


def test_with_columns(table):
    extended = table.with_columns({"double": table["v"] * 2})
    assert extended["double"].tolist() == [2.0, 4.0, 6.0, 8.0]
    assert table.num_rows == extended.num_rows


def test_head(table):
    assert table.head(2).num_rows == 2
    assert table.head(99).num_rows == 4
