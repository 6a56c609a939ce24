"""Exact scalar arithmetic: rationals and prime fields.

Every computation in this package is exact.  A rational scalar is a
plain ``int`` while it is integral; only a division that does not come
out even makes a ``fractions.Fraction``.  Sums and products of
Fractions stay Fractions even when integral, which is still exact.
A prime-field scalar is a plain ``int`` in 0..p-1.  The field is reduced
where a value is stored (``Field.coerce``, ``Field.reduced``, the
``linalg.vec_add_scaled`` kernel, which the identity kernel sums
through, ``Span`` rows, the ``SuperPoly`` and ``WElement``
operations); only ``SuperPoly.mul_into`` sums exact ints across a whole
product and reduces once at its end.  Each loop picks its reducing
variant once per call from ``Field.p``, which is None over QQ, so
rational runs never pay for it.  A :class:`Field` object
decides which kind a computation uses and provides construction,
coercion, parsing and the one division, :meth:`Field.div`, so no
``int / int`` ever makes a float.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["Field", "FieldError", "LiteralError", "QQ", "GF", "PRIME_BOUND", "is_prime",
           "parse_int"]


class FieldError(ValueError):
    pass


class LiteralError(FieldError):
    """A malformed number; readers of a file add the line it is on."""


def parse_int(text: str) -> int:
    """An ASCII integer literal, [+-]?[0-9]+.  ``int`` alone would also
    read '1_0' as 10, and digits of other scripts."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise LiteralError("bad integer literal %r" % text)
    return int(text)


def _reduced(q):
    """An integral rational as an int; any other rational unchanged."""
    return int(q) if q.denominator == 1 else q


# Miller-Rabin to the prime bases 2..41 decides every n below this bound
# (Sorenson and Webster 2015, the least strong pseudoprime to all of them)
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below ``PRIME_BOUND``; raises
    ValueError above it."""
    if n < 2:
        return False
    if n >= PRIME_BOUND:
        raise ValueError("primality of %d is not decided: P must be below %d"
                         % (n, PRIME_BOUND))
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals, or Z/pZ for a prime p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "rationals":
            if p is not None:
                raise FieldError("rationals take no characteristic")
        elif kind == "prime_field":
            if p is not None and p >= PRIME_BOUND:
                raise FieldError("prime_field needs p below %d, got %d" % (PRIME_BOUND, p))
            if p is None or not is_prime(p):
                raise FieldError("prime_field needs a prime p, got %r" % (p,))
        else:
            raise FieldError("unknown field kind %r" % (kind,))
        self.kind = kind
        self.p = p

    # -- construction -------------------------------------------------
    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def scalar(self, num, den=1):
        return self.coerce(num) if den == 1 else self.div(num, den)

    def parse(self, text: str):
        """Parse a scalar literal such as ``-3``, ``5/7``: one ASCII
        integer literal, or two joined by ``/``."""
        text = text.strip()
        if "/" in text:
            a, b = text.split("/", 1)
            try:
                return self.scalar(parse_int(a), parse_int(b))
            except ZeroDivisionError:
                raise FieldError("zero denominator in %r" % text) from None
        return self.scalar(parse_int(text))

    def div(self, a, b):
        """a / b, the one division: over QQ an int when b divides a and a
        Fraction otherwise, over F_p an int in 0..p-1.  Raises
        ZeroDivisionError when b is zero."""
        p = self.p
        if p is None:
            if type(a) is int and type(b) is int and a % b == 0:
                return a // b
            return _reduced(Fraction(a, b))
        if not b % p:
            raise ZeroDivisionError("division by zero in F_%d" % p)
        return self.coerce(a) * pow(b, -1, p) % p

    def coerce(self, x):
        """x as a scalar: over QQ an int, or a Fraction when x is not
        integral; over F_p an int in 0..p-1, from an int only."""
        p = self.p
        if p is None:
            return x if type(x) is int else _reduced(Fraction(x))
        if isinstance(x, int):
            return x % p
        raise FieldError("cannot coerce %r into F_%d" % (x, p))

    def reduced(self, vec: dict) -> dict:
        """A coordinate dict of exact ints taken into F_p: each value mod
        p, the zeros dropped.  Over QQ, whose values need no reduction,
        ``vec`` itself."""
        p = self.p
        return vec if p is None else {k: r for k, v in vec.items() if (r := v % p)}

    def check(self, x) -> bool:
        if self.p is None:
            return isinstance(x, (Fraction, int))
        return type(x) is int and 0 <= x < self.p

    # -- identity ------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.kind == "rationals" else "GF(%d)" % self.p

    @property
    def name(self) -> str:
        return "q" if self.kind == "rationals" else "fp:%d" % self.p


QQ = Field("rationals")

_gf_cache: dict[int, Field] = {}


def GF(p: int) -> Field:
    try:
        return _gf_cache[p]
    except KeyError:
        f = Field("prime_field", p)
        _gf_cache[p] = f
        return f


def field_from_name(name: str) -> Field:
    """Parse a field handle: ``q`` for the rationals, ``fp:P`` for F_P."""
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        return GF(parse_int(name[3:]))
    raise FieldError("unknown field name %r (expected 'q' or 'fp:P')" % name)
