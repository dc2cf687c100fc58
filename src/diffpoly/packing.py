"""
Many integer dot products as one big-integer product.

`PackedRows` holds integer rows r and substitutes a query t into all of
them at once.  Column j of the rows is packed into the one big integer
sum_r r_j * 2^(W*r), so sum_j t_j * column_j is sum_r (r.t) * 2^(W*r):
a few big-integer multiplications in C in place of one Python dot
product per row.  W is chosen so that every |r.t| < 2^(W-1), for queries
up to twice the sum |t_j| of the one that packed; a larger query repacks.
Adding G = sum_r 2^(W-1) * 2^(W*r) then leaves each field r.t + 2^(W-1)
in [0, 2^W), with no carry, and its top bit set exactly when r.t >= 0.
So one AND with G reads every sign, and the fields read back every value.

The hulls of `geometry` use it to substitute a state into every facet,
a certificate into every point and a point into every nearest-first key.

>>> rows = PackedRows([[1, -1], [0, 2], [3, 1]])
>>> rows.values([2, 5])
[-3, 10, 11]
>>> rows.holds([2, 5]), rows.holds([2, 5], below=0)
(False, True)
>>> rows.values([2 ** 90, 5])  # repacked for the larger query
[1237940039285380274899124219, 10, 3713820117856140824697372677]
"""
from __future__ import annotations

from typing import Sequence

__all__ = ["PackedRows"]


class PackedRows:
    """Integer rows, each of the same length, packed on the first query (see
    the module docstring)."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = rows
        self._bound = 0  # the first query packs

    def _pack(self, t: Sequence[int]) -> None:
        """Pack the rows for queries up to twice the sum |t_j| of `t`."""
        rows, self._bound = self.rows, 2 * sum(map(abs, t))
        top = max((abs(v) for row in rows for v in row), default=0)
        size = ((top * self._bound).bit_length() + 8) // 8  # bytes per field: W = 8 * size
        half = 1 << (8 * size - 1)
        ones = ((1 << (8 * size * len(rows))) - 1) // ((1 << (8 * size)) - 1)  # 1 in every field
        # each column_j as sum (r_j + half) * 2^(W*r), every field in [0, 2^W), less half * ones
        self._columns = [int.from_bytes(b"".join((v + half).to_bytes(size, "little") for v in column),
                                        "little") - half * ones
                         for column in zip(*rows)]
        self._size, self._guards = size, half * ones

    def holds(self, t: Sequence[int], below: int | None = None) -> bool:
        """Is r.t >= 0 at every row r, but < 0 at row `below` if given?"""
        if sum(map(abs, t)) >= self._bound:
            self._pack(t)
        total = guards = self._guards
        for v, column in zip(t, self._columns):  # the fields r.t + 2^(W-1)
            total += v * column
        if below is None:
            return total & guards == guards
        return total & guards == guards ^ 1 << (8 * self._size * (below + 1) - 1)

    def values(self, t: Sequence[int]) -> list[int]:
        """r.t at every row r, in order."""
        if sum(map(abs, t)) >= self._bound:
            self._pack(t)
        total = self._guards
        for v, column in zip(t, self._columns):
            total += v * column
        size, half = self._size, 1 << (8 * self._size - 1)
        data = total.to_bytes(size * len(self.rows), "little")
        return [int.from_bytes(data[k:k + size], "little") - half for k in range(0, len(data), size)]
