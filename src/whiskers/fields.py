"""Coefficient fields and exact rank computations.

Homology (and hence every Betti number) is computed over either a prime
field F_p or the rationals.  Ranks are exact.  F_2 has its own path,
elimination on column bitsets held in Python ints.  Every other field goes
through one sparse forward elimination on Python ints, with entries reduced
mod p for F_p and kept as integer rows divided by their content for the
rationals.
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

    @property
    def is_rational(self) -> bool:
        return self.p is None

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


def rank_gf2(columns: list[int]) -> int:
    """Rank over F_2 of a matrix given as column bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            top = col.bit_length()
            row = pivots.get(top)
            if row is None:
                pivots[top] = col
                rank += 1
                break
            col ^= row
    return rank


def _rank(rows: list[dict[int, int]], p: int | None) -> int:
    """Rank over F_p, or over the rationals when p is None.

    Sparse forward elimination on Python ints: each row is a nonempty
    {col: value} dict of its nonzero entries, already reduced mod p over
    F_p, and the rows are consumed.  The shortest remaining row is the
    pivot, which keeps fill-in low on boundary matrices; its column is
    cleared from the other rows and the pivot row is dropped.  Over F_p a
    row is cleared with the pivot's inverse and its entries stay reduced.
    Over the rationals a +-1 pivot clears a row with an integer multiple of
    itself; any other pivot first scales the row by the lead, and the row is
    then divided by its content (the gcd of its entries), which keeps entries
    small.  A rank needs no back substitution and no unit pivots, so neither
    is done.
    """
    work, rank = rows, 0
    while work:
        pivot = min(work, key=len)
        rank += 1
        col, lead = next(iter(pivot.items()))
        unit = p is not None or lead == 1 or lead == -1
        inv = lead if p is None else pow(lead, -1, p)
        rest = []
        for r in work:
            if r is pivot:
                continue
            a = r.get(col)
            if a is not None:
                if unit:
                    f = a * inv
                else:  # lead * r - a * pivot has no entry in col
                    for j in r:
                        r[j] *= lead
                    f = a
                for j, x in pivot.items():
                    y = r.get(j, 0) - f * x
                    if p is not None:
                        y %= p
                    if y:
                        r[j] = y
                    else:  # y == 0 only where r already had an entry
                        del r[j]
                if not r:
                    continue
                if not unit:
                    g = gcd(*r.values())
                    if g > 1:
                        for j in r:
                            r[j] //= g
            rest.append(r)
        work = rest
    return rank


def rank_modp(rows: list[dict[int, int]], p: int) -> int:
    """Rank over F_p of an integer matrix given as sparse rows, one
    {col: value} dict of nonzero entries per row, which are left alone."""
    work = ({j: x % p for j, x in r.items() if x % p} for r in rows)
    return _rank([r for r in work if r], p)


def rank_rational(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of an integer matrix given as sparse rows,
    one {col: value} dict of nonzero entries per row, which are left alone."""
    work = ({j: x for j, x in r.items() if x} for r in rows)
    return _rank([r for r in work if r], None)
