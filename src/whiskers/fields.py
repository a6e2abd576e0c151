"""Coefficient fields and exact rank computations.

Homology (and hence every Betti number) is computed over either a prime
field F_p or the rationals.  Ranks are exact.  F_2 has its own path,
elimination on column bitsets held in Python ints.  Every other field goes
through one sparse forward elimination, with entries reduced mod p for F_p
and held as Fractions for the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _rank(rows: list[list[int]], p: int | None) -> int:
    """Rank over F_p, or over the rationals when p is None.

    Sparse forward elimination: each row is a {col: value} dict of its
    nonzero entries.  The shortest remaining row is the pivot, which keeps
    fill-in low on boundary matrices; its column is cleared from the other
    rows and the pivot row is dropped.  A rank needs no back substitution
    and no unit pivots, so neither is done.
    """
    if p is None:
        work = [{j: Fraction(x) for j, x in enumerate(r) if x} for r in rows]
    else:
        work = [{j: x % p for j, x in enumerate(r) if x % p} for r in rows]
    work = [r for r in work if r]
    rank = 0
    while work:
        pivot = min(work, key=len)
        rank += 1
        col, lead = next(iter(pivot.items()))
        inv = 1 / lead if p is None else pow(lead, -1, p)
        rest = []
        for r in work:
            if r is pivot:
                continue
            a = r.get(col)
            if a is not None:
                f = a * inv
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
            rest.append(r)
        work = rest
    return rank


def rank_modp(rows: list[list[int]], p: int) -> int:
    """Rank over F_p of a dense integer matrix."""
    return _rank(rows, p)


def rank_rational(rows: list[list[int]]) -> int:
    """Rank over the rationals of a dense integer matrix."""
    return _rank(rows, None)
