"""
Exact sparse polynomials over Python integers in the fixed variables (x, y, q, t).

A polynomial is a map from exponent vectors (ex, ey, eq, et) to nonzero
integer coefficients.  Instances are immutable: every operation returns a
new polynomial, so values are safe to share, hash and cache.

The canonical string lists terms in graded-lexicographic order (total
degree first, then the exponent vector, both descending), e.g.
``x^2*y + 2*x - 1``.  Equal polynomials have identical canonical strings;
the CLI and the golden-file tests rely on that verbatim.
"""

from __future__ import annotations

from typing import Iterator, Mapping

__all__ = ["MultiPoly", "X", "Y", "Q", "T", "ONE", "ZERO"]

VARIABLES = ("x", "y", "q", "t")
_VAR_INDEX = {name: k for k, name in enumerate(VARIABLES)}

Exponents = tuple[int, int, int, int]


class MultiPoly:
    """Sparse exact-integer polynomial in (x, y, q, t)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        clean: dict[Exponents, int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != 4 or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector: {exps}")
                if coeff:
                    clean[exps] = clean.get(exps, 0) + coeff
                    if not clean[exps]:
                        del clean[exps]
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "MultiPoly":
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def monomial(
        cls, coeff: int, ex: int = 0, ey: int = 0, eq: int = 0, et: int = 0
    ) -> "MultiPoly":
        return cls({(ex, ey, eq, et): coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponents, int]]:
        return iter(self._terms.items())

    def coefficient(self, ex: int = 0, ey: int = 0, eq: int = 0, et: int = 0) -> int:
        return self._terms.get((ex, ey, eq, et), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def as_int(self) -> int:
        """The value of a constant polynomial."""
        if not self._terms:
            return 0
        if set(self._terms) != {(0, 0, 0, 0)}:
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms[(0, 0, 0, 0)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = _coerce(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        out = MultiPoly.__new__(MultiPoly)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly.__new__(MultiPoly)
        out._terms = {exps: -c for exps, c in self._terms.items()}
        return out

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return self + (-_coerce(other))

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = _coerce(other)
        terms: dict[Exponents, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                new = terms.get(exps, 0) + c1 * c2
                if new:
                    terms[exps] = new
                else:
                    del terms[exps]
        out = MultiPoly.__new__(MultiPoly)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise ValueError("negative power")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- substitution ------------------------------------------------------

    def substitute(self, **bindings: int) -> "MultiPoly":
        """Bind some of x, y, q, t to integers, keeping the rest symbolic.

        Uses the convention 0**0 = 1, so binding a variable to 0 kills
        exactly the terms with a positive exponent in that variable.
        """
        for name in bindings:
            if name not in _VAR_INDEX:
                raise ValueError(f"unknown variable: {name!r}")
        terms: dict[Exponents, int] = {}
        for exps, coeff in self._terms.items():
            new_exps = list(exps)
            for name, value in bindings.items():
                k = _VAR_INDEX[name]
                coeff *= value ** new_exps[k]
                new_exps[k] = 0
            if coeff:
                key = tuple(new_exps)
                new = terms.get(key, 0) + coeff
                if new:
                    terms[key] = new
                else:
                    del terms[key]
        out = MultiPoly.__new__(MultiPoly)
        out._terms = terms
        return out

    # -- formatting --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """Terms in canonical (graded-lexicographic, descending) order."""
        return sorted(
            self._terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(VARIABLES, exps)
                if e
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly<{self}>"


def _coerce(value: "MultiPoly | int") -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, int):
        return MultiPoly.constant(value)
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


X = MultiPoly.monomial(1, ex=1)
Y = MultiPoly.monomial(1, ey=1)
Q = MultiPoly.monomial(1, eq=1)
T = MultiPoly.monomial(1, et=1)
ONE = MultiPoly.constant(1)
ZERO = MultiPoly.zero()
