"""Exact scalar arithmetic: rationals and prime fields.

Every computation in this package is exact.  A rational scalar is a
plain ``int`` while it is integral; only a division that does not come
out even makes a ``fractions.Fraction``.  Sums and products of
Fractions stay Fractions even when integral, which is still exact.
Prime-field scalars are ``ModP`` wrappers around ints reduced mod p, kept
at the boundary: the identity kernel sums balanced ints and reduces once.
Scalars of the two kinds are never mixed; a :class:`Field` object
decides which kind a computation uses and provides construction,
coercion, parsing and the one division, :meth:`Field.div`, so no
``int / int`` ever makes a float.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Field", "FieldError", "QQ", "GF", "ModP", "is_prime"]


class FieldError(ValueError):
    pass


def _reduced(q):
    """An integral rational as an int; any other rational unchanged."""
    return int(q) if q.denominator == 1 else q


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class ModP:
    """An element of Z/pZ.  Arithmetic accepts ints on either side."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, ModP):
            if other.p != self.p:
                raise FieldError("mixed prime fields: p=%d vs p=%d" % (self.p, other.p))
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return ModP(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return ModP(self.v - w, self.p)

    def __rsub__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return ModP(w - self.v, self.p)

    def __mul__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return ModP(self.v * w, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        if w % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return ModP(self.v * pow(w, -1, self.p), self.p)

    def __rtruediv__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return ModP(w * pow(self.v, -1, self.p), self.p)

    def __neg__(self):
        return ModP(-self.v, self.p)

    def __pow__(self, k: int):
        return ModP(pow(self.v, k, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, ModP):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other
        return NotImplemented

    def __hash__(self):
        # ModP(v, p) equals only the reduced int v, so it hashes like v
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return str(self.v)


class Field:
    """The rationals, or Z/pZ for a prime p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "rationals":
            if p is not None:
                raise FieldError("rationals take no characteristic")
        elif kind == "prime_field":
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
        if den != 1:
            return self.div(num, den)
        if self.kind == "rationals":
            return num if type(num) is int else _reduced(Fraction(num))
        if isinstance(num, ModP):
            if num.p != self.p:
                raise FieldError("wrong characteristic")
            return num
        return ModP(num, self.p)

    def parse(self, text: str):
        """Parse a scalar literal such as ``-3``, ``5/7``."""
        text = text.strip()
        if "/" in text:
            a, b = text.split("/", 1)
            try:
                return self.scalar(int(a), int(b))
            except ZeroDivisionError:
                raise FieldError("zero denominator in %r" % text) from None
        return self.scalar(int(text))

    def div(self, a, b):
        """a / b, the one division: over QQ an int when b divides a and a
        Fraction otherwise, over F_p a ``ModP``.  Raises ZeroDivisionError
        when b is zero."""
        if self.kind == "rationals":
            if type(a) is int and type(b) is int and a % b == 0:
                return a // b
            return _reduced(Fraction(a, b))
        return self.scalar(a) / b

    def coerce(self, x):
        """Accept ints and already-typed scalars; reject foreign kinds."""
        if isinstance(x, int):
            return self.scalar(x)
        if self.kind == "rationals":
            if isinstance(x, ModP):
                raise FieldError("prime-field scalar in a rational computation")
            return _reduced(Fraction(x))
        if isinstance(x, ModP):
            if x.p != self.p:
                raise FieldError("wrong characteristic")
            return x
        raise FieldError("cannot coerce %r into F_%d" % (x, self.p))

    def check(self, x) -> bool:
        if self.kind == "rationals":
            return isinstance(x, (Fraction, int))
        return isinstance(x, ModP) and x.p == self.p

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
        return GF(int(name[3:]))
    raise FieldError("unknown field name %r (expected 'q' or 'fp:P')" % name)
