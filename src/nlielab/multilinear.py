"""Supersymmetric multilinear maps and the sign bookkeeping behind them.

A k-linear map S^k V -> V is stored sparsely on canonically sorted
argument tuples.  One Koszul rule does all the sign work, seen from the
two sides of the parity reversal: ``koszul_sort`` sorts a key tuple and
returns the sign of the sort,

* symmetric side: swapping adjacent arguments a, b costs (-1)^{p(a)p(b)};
  a repeated odd argument kills the tuple;
* alternating side: the swap costs -(-1)^{p(a)p(b)}; a repeated even
  argument kills the tuple.

Flipping every parity exchanges the two sides, so a canonical tuple of
one side is a canonical tuple of the other; ``canonical_tuples`` lists
them.  With every key even the alternating side is the plain
permutation sign, and it is the symmetric side of odd keys: the Koszul
sign of a product of anticommuting variables.

``conversion_sign`` is the scalar that turns an anticommutative n-ary
bracket on V into a supersymmetric map on the parity reversal of V and
back: for arguments a_1..a_n it is (-1) raised to the sum of the
parities of a_{n-1}, a_{n-3}, ... (every other argument, counted from
the next-to-last one).  The convention used throughout evaluates the
sign at the parities the arguments carry on the *symmetric* side.
Applying the conversion twice restores the original bracket exactly.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .superspace import SuperSpace, SuperVector

__all__ = [
    "koszul_sort",
    "canonical_tuples",
    "conversion_sign",
    "MultiMap",
    "bracket_to_symmetric",
    "symmetric_to_bracket",
    "serialize_map",
    "parse_map",
]


def koszul_sort(keys, parities=None, alternating=True):
    """Sort ``keys`` ascending; returns (sorted tuple, sign).

    Each interchange of adjacent keys a > b flips the sign iff
    p(a) p(b) + alternating is odd, and a repeated key of parity p gives
    sign 0 iff p + alternating is odd; the tuple still comes back sorted.
    ``parities[k]`` is the parity of key k; None makes every key even.
    """
    out = list(keys)
    flip = 0
    for i in range(1, len(out)):
        k = out[i]
        j = i
        while j and out[j - 1] > k:
            out[j] = out[j - 1]
            j -= 1
        if j == i:
            continue
        out[j] = k  # k crossed the keys now at j+1..i
        if parities is None or not parities[k]:
            flip ^= (i - j) & alternating
        else:
            for m in out[j + 1:i + 1]:
                flip ^= parities[m] ^ alternating
    for a, b in zip(out, out[1:]):
        if a == b and (alternating if parities is None else parities[a] ^ alternating):
            return tuple(out), 0
    return tuple(out), -1 if flip else 1


def canonical_tuples(keys, r: int, parities, alternating=True):
    """The r-tuples of the ordered list ``keys`` that ``koszul_sort``
    keeps nonzero, in the list's order: ascending positions, with a key
    repeated only where its repeat survives.  ``parities[i]`` is the
    parity of ``keys[i]``."""
    keys = list(keys)
    repeat = [not (p ^ alternating) for p in parities]
    if any(repeat):
        picks = (t for t in combinations_with_replacement(range(len(keys)), r)
                 if all(a != b or repeat[a] for a, b in zip(t, t[1:])))
    else:
        picks = combinations(range(len(keys)), r)
    for t in picks:
        yield tuple(keys[i] for i in t)


def conversion_sign(parities) -> int:
    """Sign relating an anticommutative n-bracket and its symmetric twin.

    ``parities`` is the parity signature of the argument tuple on the
    symmetric side; n must be at least 2.
    """
    n = len(parities)
    if n < 2:
        raise ValueError("conversion sign needs at least 2 arguments")
    e = 0
    k = n - 2  # positions n-2, n-4, ... in 0-based indexing
    while k >= 0:
        e += parities[k]
        k -= 2
    return -1 if e % 2 else 1


class MultiMap:
    """A supersymmetric k-linear map S^k(V) -> V, k >= 1.

    The table holds one entry per canonically sorted argument tuple
    (indices ascending, odd indices distinct); evaluation sorts any
    other tuple with ``koszul_sort`` on the symmetric side.  ``parity``
    is the parity of the map itself and every stored value must satisfy
    p(value) = parity + sum of argument parities.
    """

    __slots__ = ("space", "arity", "parity", "table")

    def __init__(self, space: SuperSpace, arity: int, parity: int, table: dict | None = None):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.space = space
        self.arity = arity
        self.parity = parity % 2
        self.table = {}
        if table:
            for key, val in table.items():
                if val.is_zero():
                    continue
                skey, sign = koszul_sort(key, space.parities, alternating=False)
                if sign == 0:
                    raise ValueError("table key %r collapses to zero" % (key,))
                if skey != tuple(key):
                    raise ValueError("table key %r is not canonically sorted" % (key,))
                self.table[skey] = val
        self._check_parity()

    def _check_parity(self):
        par = self.space.parities
        for key, val in self.table.items():
            want = (self.parity + sum(par[i] for i in key)) % 2
            got = val.parity()
            if got is None or (not val.is_zero() and got != want):
                raise ValueError(
                    "value parity %r at %r violates p(f(a)) = p(f)+sum p(a_i)" % (got, key)
                )

    def is_zero(self) -> bool:
        return not self.table

    def evaluate(self, indices) -> SuperVector:
        key, sign = koszul_sort(indices, self.space.parities, alternating=False)
        if sign == 0:
            return self.space.zero()
        val = self.table.get(key)
        if val is None:
            return self.space.zero()
        return val if sign == 1 else val.scale(sign)

    def evaluate_expand(self, first: SuperVector, rest) -> SuperVector:
        """Evaluate with a vector in the first slot and indices after it."""
        out = self.space.zero()
        for i, c in first.coords.items():
            v = self.evaluate((i,) + tuple(rest))
            if not v.is_zero():
                out = out + v.scale(c)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MultiMap)
            and self.space == other.space
            and self.arity == other.arity
            and self.table == other.table
        )

    def items(self):
        return sorted(self.table.items())

    def __repr__(self):
        return "MultiMap(arity=%d, parity=%d, %d entries)" % (self.arity, self.parity, len(self.table))


def bracket_to_symmetric(space: SuperSpace, arity: int, bracket_parity: int, eval_fn) -> MultiMap:
    """Transport an anticommutative bracket on V to its symmetric twin on
    the parity reversal of V.

    ``eval_fn`` maps a canonical alternating index tuple to a
    SuperVector in V.  The twin lives on space.reversed(); its parity is
    bracket_parity + arity - 1.  Anticommutativity of the input is
    verified on adjacent transpositions; a violation raises ValueError
    with the witness tuple.
    """
    if arity < 2:
        raise ValueError("transport needs arity >= 2")
    pi = space.reversed()
    par = space.parities

    def as_pi(v: SuperVector) -> SuperVector:
        return SuperVector(pi, dict(v.coords))

    table = {}
    # the canonical tuples of the alternating side on V are those of the
    # symmetric side on its reversal
    for key in canonical_tuples(range(space.dim), arity, par):
        val = eval_fn(key)
        for pos in range(arity - 1):
            # the supplied bracket must behave alternating off the
            # canonical tuples too, so probe it on the swapped tuple
            swapped = key[:pos] + (key[pos + 1], key[pos]) + key[pos + 2:]
            lhs = eval_fn(swapped)
            want = -1 if not (par[key[pos]] and par[key[pos + 1]]) else 1
            rhs = val.scale(want)
            if lhs != rhs:
                raise ValueError("input bracket is not anticommutative at %r" % (swapped,))
        if val.is_zero():
            continue
        sign = conversion_sign([pi.parities[i] for i in key])
        table[key] = as_pi(val if sign == 1 else val.scale(sign))
    return MultiMap(pi, arity, (bracket_parity + arity - 1) % 2, table)


def symmetric_to_bracket(mm: MultiMap):
    """Inverse transport: a symmetric map on U induces an anticommutative
    bracket on U's parity reversal.  Returns (space, arity, parity, table)
    with the table keyed by canonical alternating tuples."""
    space = mm.space.reversed()
    table = {}
    for key, val in mm.table.items():
        sign = conversion_sign([mm.space.parities[i] for i in key])
        v = SuperVector(space, dict(val.coords))
        table[key] = v if sign == 1 else v.scale(sign)
    parity = (mm.parity + mm.arity - 1) % 2
    return space, mm.arity, parity, table


def serialize_map(mm: MultiMap) -> str:
    """Lines ``i1,...,ik -> c*label + c*label`` over sorted entries."""
    lines = []
    for key, val in mm.items():
        left = ",".join(mm.space.labels[i] for i in key)
        right = " + ".join("%s*%s" % (c, mm.space.labels[i]) for i, c in val.items())
        lines.append("%s -> %s" % (left, right))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_map(text: str, space: SuperSpace, arity: int, parity: int) -> MultiMap:
    table = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ValueError("line %d: missing '->'" % lineno)
        left, right = line.split("->", 1)
        key = tuple(space.index(tok.strip()) for tok in left.split(","))
        coords = {}
        for term in right.split("+"):
            term = term.strip()
            if not term:
                continue
            c, lab = term.split("*", 1)
            idx = space.index(lab.strip())
            coords[idx] = coords.get(idx, space.field.zero()) + space.field.parse(c)
        table[key] = space.vector(coords)
    return MultiMap(space, arity, parity, table)
