"""Coefficient fields and exact rank computations.

Homology (and hence every Betti number) is computed over either a prime
field F_p or the rationals.  Ranks are exact.  Every field goes through one
elimination routine, ``reduce_column``: a column is reduced by the kept
columns, keyed by their lowest (highest-index) nonzero entry, the standard
reduction of persistent homology.  A column is an int bitset over F_2 and a
sparse {row: value} dict of Python ints otherwise, reduced mod p over F_p
and kept in integers, divided by their content, over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

# Characteristics must lie below this.  Primality is tested by trial division
# up to sqrt(p): about 7 ms for 2^31 - 1, but hours for a prime near 2^61.
CHARACTERISTIC_BOUND = 1 << 31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Either F_p (p prime) or, with p=None, the rationals."""

    p: int | None = 2

    def __post_init__(self):
        if self.p is not None and self.p >= CHARACTERISTIC_BOUND:
            raise ValueError(f"characteristic must be below 2^31, got {self.p}")
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")

    def __str__(self) -> str:
        return "QQ" if self.p is None else f"F{self.p}"

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        text = text.strip().upper()
        if text in ("Q", "QQ", "RATIONAL", "RATIONALS", "0"):
            return QQ
        if text.startswith("F"):
            text = text[1:]
        return FieldSpec(int(text))


GF2 = FieldSpec(2)
QQ = FieldSpec(None)


def reduce_column(col: int | dict[int, int], pivots: dict,
                  p: int | None) -> None:
    """Reduce one column by the kept pivot columns, and keep what is left.

    The one elimination routine, for every field.  A column is an int
    bitset of its rows, for F_2, or a {row: value} dict of its nonzero
    entries, reduced mod p over F_p (p=None: the rationals); a dict is
    consumed.  ``pivots`` maps each kept column's low, its highest row
    with a nonzero entry, to that column.  No two kept columns share a low,
    so they are independent and len(pivots) is the rank so far.  While col's
    low is a pivot's, col takes off the multiple of that pivot that clears
    the low, which changes only rows at or below it; a column left nonzero
    is kept under its new low.  Over F_p a pivot is scaled to 1 at its low
    when it is kept.  Over the rationals the arithmetic stays in integers:
    a +-1 low clears col with an integer multiple of the pivot, and any
    other low first scales col by it, after which col is divided by its
    content (the gcd of its entries), which keeps entries small.
    """
    if isinstance(col, int):
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                return
            col ^= piv
        return
    while col:
        low = max(col)
        piv = pivots.get(low)
        if piv is None:
            if p is not None and col[low] != 1:
                inv = pow(col[low], -1, p)
                for j in col:
                    col[j] = col[j] * inv % p
            pivots[low] = col
            return
        f, lead = col[low], piv[low]  # lead is 1 over F_p
        scaled = p is None and lead != 1 and lead != -1
        if scaled:  # lead * col - f * piv has no entry at low
            for j in col:
                col[j] *= lead
        elif lead == -1:  # col - (f / lead) * piv
            f = -f
        for j, x in piv.items():
            y = col.get(j, 0) - f * x
            if p is not None:
                y %= p
            if y:
                col[j] = y
            else:  # y == 0 only where col already had an entry
                del col[j]
        if col and scaled:
            g = gcd(*col.values())
            if g > 1:
                for j in col:
                    col[j] //= g


def rank_gf2(columns: list[int]) -> int:
    """Rank over F_2 of a matrix given as column bitmasks."""
    pivots: dict[int, int] = {}
    for col in columns:
        reduce_column(col, pivots, 2)
    return len(pivots)


def rank_modp(rows: list[dict[int, int]], p: int) -> int:
    """Rank over F_p of an integer matrix given as sparse rows, one
    {col: value} dict of nonzero entries per row, which are left alone."""
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        reduce_column({j: x % p for j, x in r.items() if x % p}, pivots, p)
    return len(pivots)


def rank_rational(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of an integer matrix given as sparse rows,
    one {col: value} dict of nonzero entries per row, which are left alone."""
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        reduce_column({j: x for j, x in r.items() if x}, pivots, None)
    return len(pivots)
