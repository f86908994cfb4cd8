"""Columnar tables over numpy, with dictionary-encoded strings.

Numeric columns are plain numpy arrays.  String columns are stored as
integer *codes* plus a per-column dictionary (list of distinct values),
the standard encoding for analytical engines — equality predicates
against literals become integer comparisons, which is also how the
byte-width accounting stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Table:
    """An immutable-by-convention columnar table."""

    name: str
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    #: Dictionaries for encoded string columns: column -> values, where
    #: the column array holds indices into the list.
    dictionaries: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {len(col) for col in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns in table {self.name!r}: {lengths}")

    # -- shape ------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def row_width(self, names: tuple[str, ...] | None = None) -> int:
        """Bytes per row over the given (default: all) columns."""
        names = names if names is not None else self.column_names
        return sum(self.columns[n].dtype.itemsize for n in names)

    @property
    def total_bytes(self) -> int:
        return sum(col.nbytes for col in self.columns.values())

    # -- access -----------------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def encode(self, column: str, value: str) -> int:
        """Dictionary code of ``value`` in an encoded string column.

        Returns -1 when the value does not occur (so comparisons are
        simply never true, like a selective predicate).
        """
        dictionary = self.dictionaries[column]
        try:
            return dictionary.index(value)
        except ValueError:
            return -1

    # -- derivation --------------------------------------------------------

    def select(self, names: tuple[str, ...]) -> "Table":
        """Keep only the named columns (projection pushdown)."""
        missing = set(names) - set(self.columns)
        if missing:
            raise KeyError(f"unknown columns in {self.name!r}: {sorted(missing)}")
        return Table(
            name=self.name,
            columns={n: self.columns[n] for n in names},
            dictionaries={
                n: d for n, d in self.dictionaries.items() if n in names
            },
        )

    def take(self, mask_or_indices: np.ndarray) -> "Table":
        """Row subset by boolean mask or index array."""
        return Table(
            name=self.name,
            columns={n: col[mask_or_indices] for n, col in self.columns.items()},
            dictionaries=dict(self.dictionaries),
        )

    def with_columns(self, new_columns: dict[str, np.ndarray]) -> "Table":
        merged = dict(self.columns)
        merged.update(new_columns)
        return Table(
            name=self.name, columns=merged, dictionaries=dict(self.dictionaries)
        )

    def head(self, limit: int) -> "Table":
        return self.take(np.arange(min(limit, self.num_rows)))
