"""Truncated Laurent series: the coefficient ring Z[q^-1][[q]] cut to a finite window.

A series with ``precision`` N represents an element known up to O(q^(N+1));
coefficients are arbitrary-precision integers.  Operations propagate the
window: sums are valid on the smaller window, and a product a*b is valid up
to min(prec(a) + val(b), prec(b) + val(a)), since the unknown tail of one
factor pollutes low exponents when multiplied by negative powers of q in the
other.  Equality compares coefficients on the common window.
"""

from __future__ import annotations

from typing import Iterable

DEFAULT_PRECISION = 30


class PrecisionError(ValueError):
    """Requested operation cannot be carried out inside the truncation window."""


class TruncatedSeries:
    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs: dict[int, int] | Iterable[tuple[int, int]] = (),
                 precision: int = DEFAULT_PRECISION):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict[int, int] = {}
        for e, c in items:
            if e <= precision and c:
                acc[e] = acc.get(e, 0) + c
        self.coeffs: dict[int, int] = {e: c for e, c in sorted(acc.items()) if c}
        self.precision = precision

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, precision: int = DEFAULT_PRECISION) -> TruncatedSeries:
        return cls((), precision)

    @classmethod
    def one(cls, precision: int = DEFAULT_PRECISION) -> TruncatedSeries:
        return cls({0: 1}, precision)

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1,
                 precision: int = DEFAULT_PRECISION) -> TruncatedSeries:
        return cls({exponent: coeff}, precision)

    @classmethod
    def circle(cls, precision: int = DEFAULT_PRECISION) -> TruncatedSeries:
        """The value of a closed loop, q + q^-1."""
        return cls({1: 1, -1: 1}, precision)

    @classmethod
    def quantum_integer(cls, k: int, precision: int = DEFAULT_PRECISION) -> TruncatedSeries:
        """[k] = q^(k-1) + q^(k-3) + ... + q^(1-k)."""
        if k < 0:
            return -cls.quantum_integer(-k, precision)
        return cls({k - 1 - 2 * i: 1 for i in range(k)}, precision)

    # -- inspection --------------------------------------------------------

    @property
    def min_exponent(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, exponent: int) -> int:
        return self.coeffs.get(exponent, 0)

    def items(self) -> list[tuple[int, int]]:
        return list(self.coeffs.items())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        return TruncatedSeries([*self.coeffs.items(), *other.coeffs.items()],
                               min(self.precision, other.precision))

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self + (-other)

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries({e: -c for e, c in self.coeffs.items()}, self.precision)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        bounds = []
        if other.coeffs:
            bounds.append(self.precision + other.min_exponent)
        if self.coeffs:
            bounds.append(other.precision + self.min_exponent)
        if not bounds:
            bounds.append(min(self.precision, other.precision))
        return TruncatedSeries([(e1 + e2, c1 * c2) for e1, c1 in self.coeffs.items()
                                for e2, c2 in other.coeffs.items()], min(bounds))

    def shift(self, k: int) -> TruncatedSeries:
        """Multiply by q^k (the window moves with the series)."""
        return TruncatedSeries({e + k: c for e, c in self.coeffs.items()},
                               self.precision + k)

    def inverse(self, precision: int | None = None) -> TruncatedSeries:
        """Invert a unit of the form (+-1)q^m(1 + higher terms).

        The input must be exactly known on its window (a Laurent polynomial
        such as a quantum integer); the expansion is produced on the target
        window, by default the input's own window.
        """
        if self.is_zero():
            raise ZeroDivisionError("cannot invert the zero series")
        target = self.precision if precision is None else precision
        m = self.min_exponent
        lead = self.coeffs[m]
        if lead not in (1, -1):
            raise ValueError(f"leading coefficient {lead} is not a unit in Z")
        window = target + m
        if window < 0:
            raise PrecisionError("window too small to hold the inverse's leading term")
        normalized = TruncatedSeries({e - m: c * lead for e, c in self.coeffs.items()},
                                     window)
        r = TruncatedSeries.one(window) - normalized
        if not r.is_zero() and r.min_exponent <= 0:
            raise ValueError("series is not of unit form q^m(1 + O(q))")
        out = TruncatedSeries.one(window)
        power = TruncatedSeries.one(window)
        while True:
            power = power * r
            if power.is_zero() or power.min_exponent > window:
                break
            out = out + power
        return TruncatedSeries({e - m: c * lead for e, c in out.coeffs.items()}, target)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        window = min(self.precision, other.precision)
        return ({e: c for e, c in self.coeffs.items() if e <= window}
                == {e: c for e, c in other.coeffs.items() if e <= window})

    __hash__ = None  # window-relative equality is not hash-compatible

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for e, c in self.coeffs.items():
            term = "q" if e == 1 else "q^%d" % e if e else ""
            if abs(c) != 1 or not term:
                term = ("%d" % c) + ("*" + term if term else "")
            elif c == -1:
                term = "-" + term
            bits.append(term)
        return " + ".join(bits).replace("+ -", "- ")

    def to_json(self) -> list[list[int]]:
        return [[e, c] for e, c in self.coeffs.items()]
