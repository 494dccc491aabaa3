"""Dense univariate polynomials over the integers.

Coefficients are Python ints, so every operation is exact at arbitrary
precision.  This is non-negotiable for the rest of the package: the
classification predicates hinge on exact values such as P(-1) and on the
exact multiplicity of the root -1.
"""

from __future__ import annotations

from typing import Iterable


class IntPolynomial:
    """Immutable dense polynomial with integer coefficients.

    Coefficients are stored lowest degree first with trailing zeros
    trimmed, so ``coeffs[-1] != 0`` for every nonzero polynomial.  The
    zero polynomial is the empty coefficient tuple.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = tuple(coeffs)
        if cs and not cs[-1]:
            # only an untrimmed input is copied again
            trimmed = list(cs)
            while trimmed and not trimmed[-1]:
                trimmed.pop()
            cs = tuple(trimmed)
        self._coeffs = cs

    @classmethod
    def binomial(cls, n: int) -> "IntPolynomial":
        """(1 + x)**n expanded exactly.

        Each coefficient comes from the one before it, C(n, k + 1) =
        C(n, k) (n - k) / (k + 1), and the division is exact.
        """
        if n < 0:
            raise ValueError("negative exponent")
        row = [1]
        for k in range(n):
            row.append(row[-1] * (n - k) // (k + 1))
        return cls(row)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, i: int) -> int:
        """Coefficient of x**i (0 beyond the stored degree)."""
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    @property
    def leading_coefficient(self) -> int:
        """Coefficient of the highest power; 0 for the zero polynomial."""
        return self._coeffs[-1] if self._coeffs else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self._coeffs)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(other * c for c in self._coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative exponent")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by x**k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if not self._coeffs:
            return ZERO
        return IntPolynomial((0,) * k + self._coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def divide_linear_root(self, r: int) -> tuple["IntPolynomial", int]:
        """Synthetic division by (x - r); returns (quotient, remainder).

        The remainder equals the evaluation at r, and division is exact
        integer arithmetic throughout.
        """
        if not self._coeffs:
            raise ValueError("cannot divide the zero polynomial")
        carry = 0
        b = []
        for a in reversed(self._coeffs):
            carry = a + r * carry
            b.append(carry)
        remainder = b[-1]
        quotient = IntPolynomial(reversed(b[:-1]))
        return quotient, remainder

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"

    def format(self, var: str = "x") -> str:
        """Human-readable form such as ``1 + 3t - 2t^3``."""
        if not self._coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                term = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
        return " ".join(parts)


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))
