"""Polynomials in commuting variables x_i and anticommuting xi_j, and
first-order differential operators on them.

A term is keyed by (x-exponents, sorted tuple of xi indices); the xi
word is kept sorted, with the Koszul sign absorbed into the
coefficient.  Derivatives in xi are left derivatives:
d/dxi_j (xi_{s_1}...xi_{s_k}) = (-1)^pos * word-without-j, pos being
the position of j in the sorted word.  A product looks the merged word
and its Koszul sign up in its ring's ``xi_products`` table, filled the
first time a pair of words meets: at most 2^n x 2^n entries.  The odd
xi sort as even keys on the alternating side of ``koszul_sort``: each
crossing flips the sign and a repeated xi kills the word.

Operators are sums  X = sum_i P_i d/dx_i + sum_j Q_j d/dxi_j  acting as
superderivations.  Their supercommutator is first order again and is
computed coefficientwise:  [X,Y] = sum_b (X(Q_b) - (-1)^{p(X)p(Y)} Y(P_b)) d_b.
The divergence is  div X = sum dP_i/dx_i + sum (-1)^{p(Q_j)} dQ_j/dxi_j.
"""

from __future__ import annotations

from operator import add

from .fields import Field
from .linalg import vec_add_scaled
from .multilinear import koszul_sort

__all__ = ["SuperPolyRing", "SuperPoly", "DiffOp", "delta"]


class SuperPolyRing:
    def __init__(self, field: Field, m: int, n: int):
        self.field = field
        self.m = m  # commuting variables x_1..x_m
        self.n = n  # anticommuting variables xi_1..xi_n
        # xi word -> {xi word: (sorted product word, Koszul sign or 0)}
        self.xi_products: dict = {}

    def zero(self) -> "SuperPoly":
        return SuperPoly(self, {})

    def one(self) -> "SuperPoly":
        return self.monomial((0,) * self.m, ())

    def monomial(self, alpha, xis=(), coeff=1) -> "SuperPoly":
        alpha = tuple(alpha)
        xis = tuple(xis)
        if len(alpha) != self.m:
            raise ValueError("expected %d exponents" % self.m)
        if any(e < 0 for e in alpha):
            raise ValueError("negative exponent")
        if list(xis) != sorted(set(xis)) or any(not (1 <= j <= self.n) for j in xis):
            raise ValueError("xi word must be sorted distinct indices in 1..%d" % self.n)
        c = self.field.coerce(coeff)
        if not c:
            return self.zero()
        return SuperPoly(self, {(alpha, xis): c})

    def x(self, i: int) -> "SuperPoly":
        alpha = [0] * self.m
        alpha[i - 1] = 1
        return self.monomial(alpha, ())

    def xi(self, j: int) -> "SuperPoly":
        return self.monomial((0,) * self.m, (j,))

    def __eq__(self, other):
        return (
            isinstance(other, SuperPolyRing)
            and self.field == other.field
            and (self.m, self.n) == (other.m, other.n)
        )

    def __hash__(self):
        return hash((self.field, self.m, self.n))

    def __repr__(self):
        return "SuperPolyRing(m=%d, n=%d over %r)" % (self.m, self.n, self.field)


class SuperPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: SuperPolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def parity(self):
        """0, 1, or None when mixed; zero polynomial counts as even."""
        ps = {len(x) % 2 for (_, x) in self.terms}
        if not ps:
            return 0
        if len(ps) == 1:
            return ps.pop()
        return None

    def homogeneous_parts(self):
        parts = ({}, {})
        for key, c in self.terms.items():
            parts[len(key[1]) % 2][key] = c
        return tuple(SuperPoly(self.ring, p) for p in parts)

    def __add__(self, other):
        out = dict(self.terms)
        vec_add_scaled(out, other.terms, 1, self.ring.field.p)
        return SuperPoly(self.ring, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "SuperPoly":
        field = self.ring.field
        c = field.coerce(c)
        if not c:
            return self.ring.zero()
        return SuperPoly(self.ring, field.reduced({k: c * v for k, v in self.terms.items()}))

    def __mul__(self, other):
        if not isinstance(other, SuperPoly):
            return self.scale(other)
        return SuperPoly(self.ring, self.mul_into({}, other))

    def mul_into(self, out: dict, other: "SuperPoly") -> dict:
        """Accumulate self*other into the term dict ``out`` in place and
        return it; cancelled terms are removed.
        ``out`` must not be the terms of either factor.  Over F_p the loop
        sums exact ints and ``out`` is reduced once, at the end."""
        products = self.ring.xi_products
        for (a1, x1), c1 in self.terms.items():
            row = products.get(x1)
            if row is None:
                row = products[x1] = {}
            for (a2, x2), c2 in other.terms.items():
                merged = row.get(x2)
                if merged is None:
                    merged = row[x2] = koszul_sort(x1 + x2)
                word, s = merged
                if s == 0:
                    continue
                key = (tuple(map(add, a1, a2)), word)
                c = c1 * c2
                if s < 0:
                    c = -c
                w = out.get(key)
                if w is None:
                    out[key] = c
                else:
                    w = w + c
                    if w:
                        out[key] = w
                    else:
                        del out[key]
        if self.ring.field.p is not None:
            reduced = self.ring.field.reduced(out)
            out.clear()
            out.update(reduced)
        return out

    __rmul__ = __mul__

    def dx(self, i: int) -> "SuperPoly":
        out = {}  # lowering one exponent maps distinct keys apart: no merging
        for (alpha, xis), c in self.terms.items():
            e = alpha[i - 1]
            if e:
                out[(alpha[: i - 1] + (e - 1,) + alpha[i:], xis)] = c * e
        return SuperPoly(self.ring, self.ring.field.reduced(out))  # drops p | e

    def dxi(self, j: int) -> "SuperPoly":
        out = {}  # so does dropping xi_j from the words that hold it
        for (alpha, xis), c in self.terms.items():
            if j in xis:
                pos = xis.index(j)
                out[(alpha, xis[:pos] + xis[pos + 1:])] = -c if pos % 2 else c
        return SuperPoly(self.ring, self.ring.field.reduced(out))

    def derive(self, g) -> "SuperPoly":
        """d/dx_i or d/dxi_i for the generator g = ("x" | "xi", i)."""
        return self.dx(g[1]) if g[0] == "x" else self.dxi(g[1])

    def weighted(self, weight_fn) -> "SuperPoly":
        """Scale each term by an integer weight (e.g. Euler operators)."""
        out = {}
        for key, c in self.terms.items():
            w = weight_fn(key)
            if w:
                out[key] = c * w
        return SuperPoly(self.ring, self.ring.field.reduced(out))

    def euler(self, xset=None, xiset=None) -> "SuperPoly":
        """sum x_i d/dx_i + xi_j d/dxi_j over selected variables."""
        xs = set(xset) if xset is not None else set(range(1, self.ring.m + 1))
        xis = set(xiset) if xiset is not None else set(range(1, self.ring.n + 1))
        return self.weighted(
            lambda key: sum(e for i, e in enumerate(key[0], 1) if i in xs)
            + sum(1 for j in key[1] if j in xis)
        )

    def drop_constant(self) -> "SuperPoly":
        key = ((0,) * self.ring.m, ())
        if key not in self.terms:
            return self
        out = dict(self.terms)
        del out[key]
        return SuperPoly(self.ring, out)

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return isinstance(other, SuperPoly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(self.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (alpha, xis), c in self.items():
            bits = []
            for i, e in enumerate(alpha, 1):
                if e == 1:
                    bits.append("x%d" % i)
                elif e:
                    bits.append("x%d^%d" % (i, e))
            for j in xis:
                bits.append("xi%d" % j)
            mono = "*".join(bits) if bits else "1"
            parts.append("%s*%s" % (c, mono) if mono != "1" else str(c))
        return " + ".join(parts)


class DiffOp:
    """First-order operator sum_g coeff_g * d_g with g ranging over the
    generators ('x', i) and ('xi', j)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: SuperPolyRing, coeffs: dict):
        self.ring = ring
        self.coeffs = {g: p for g, p in coeffs.items() if not p.is_zero()}

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def ddx(cls, ring, i, coeff=None):
        return cls(ring, {("x", i): coeff if coeff is not None else ring.one()})

    @classmethod
    def ddxi(cls, ring, j, coeff=None):
        return cls(ring, {("xi", j): coeff if coeff is not None else ring.one()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def _gen_parity(self, g) -> int:
        return 0 if g[0] == "x" else 1

    def parity(self):
        ps = set()
        for g, p in self.coeffs.items():
            cp = p.parity()
            if cp is None:
                return None
            ps.add((cp + self._gen_parity(g)) % 2)
        if not ps:
            return 0
        if len(ps) == 1:
            return ps.pop()
        return None

    def homogeneous_parts(self):
        even: dict = {}
        odd: dict = {}
        for g, p in self.coeffs.items():
            gp = self._gen_parity(g)
            pe, po = p.homogeneous_parts()
            for cp, part in ((0, pe), (1, po)):
                if part.is_zero():
                    continue
                target = even if (cp + gp) % 2 == 0 else odd
                target[g] = target.get(g, self.ring.zero()) + part
        return DiffOp(self.ring, even), DiffOp(self.ring, odd)

    def apply(self, f: SuperPoly) -> SuperPoly:
        out = self.ring.zero()
        for g, p in self.coeffs.items():
            df = f.derive(g)
            if not df.is_zero():
                out = out + p * df
        return out

    def __add__(self, other):
        out = dict(self.coeffs)
        for g, p in other.coeffs.items():
            out[g] = out.get(g, self.ring.zero()) + p
        return DiffOp(self.ring, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return DiffOp(self.ring, {g: p.scale(c) for g, p in self.coeffs.items()})

    def bracket(self, other: "DiffOp") -> "DiffOp":
        """Supercommutator X Y - (-1)^{p(X)p(Y)} Y X, first order again."""
        total = DiffOp.zero(self.ring)
        for xa in self.homogeneous_parts():
            if xa.is_zero():
                continue
            pa = xa.parity()
            for yb in other.homogeneous_parts():
                if yb.is_zero():
                    continue
                pb = yb.parity()
                sign = -1 if (pa and pb) else 1
                out: dict = {}
                for g, q in yb.coeffs.items():
                    out[g] = xa.apply(q)
                for g, p in xa.coeffs.items():
                    t = yb.apply(p)
                    out[g] = out.get(g, self.ring.zero()) + (t if sign < 0 else -t)
                total = total + DiffOp(self.ring, out)
        return total

    def divergence(self) -> SuperPoly:
        out = self.ring.zero()
        for g, p in self.coeffs.items():
            if g[0] == "x":
                out = out + p.dx(g[1])
            else:
                pe, po = p.homogeneous_parts()
                out = out + pe.dxi(g[1]) - po.dxi(g[1])
        return out

    def vectorize(self) -> dict:
        coords = {}
        for g, p in self.coeffs.items():
            for key, c in p.terms.items():
                coords[(g, key)] = c
        return coords

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.ring == other.ring and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for g in sorted(self.coeffs):
            name = "d/d%s%d" % (g[0], g[1])
            parts.append("(%r)%s" % (self.coeffs[g], name))
        return " + ".join(parts)


def delta(f: SuperPoly, pairs: int | None = None) -> SuperPoly:
    """Odd Laplacian sum_i d^2/(dx_i dxi_i) over the first ``pairs`` pairs."""
    k = pairs if pairs is not None else min(f.ring.m, f.ring.n)
    out = f.ring.zero()
    for i in range(1, k + 1):
        out = out + f.dx(i).dxi(i)
    return out
