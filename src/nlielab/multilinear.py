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

``bracket_to_symmetric`` applies it to a bracket on V and returns the
symmetric twin in a ``MultiMap`` before ``universal.WElement.from_map``
flattens it.  Its values, like those of every finite table, are
coordinate dicts {basis index: nonzero scalar}.  ``checked_table`` is
the one check of such a table (key lengths, canonical keys, indices in
range, value parities, zeros dropped), on the symmetric side for a
``MultiMap`` and on the alternating side for ``nlie.FiniteNAryAlgebra``.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb

from .superspace import SuperSpace

__all__ = ["koszul_sort", "canonical_tuples", "canonical_count", "conversion_sign",
           "checked_table", "MultiMap", "bracket_to_symmetric"]


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


def canonical_count(parities, r: int) -> int:
    """The number of alternating ``canonical_tuples`` of r keys with
    these parities, without listing them: m of the r picks are odd keys,
    which may repeat, and the rest distinct even keys."""
    odd = sum(parities)
    even = len(parities) - odd
    return sum(comb(even, r - m) * (comb(odd + m - 1, m) if m else 1) for m in range(r + 1))


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


def checked_table(space: SuperSpace, arity: int, parity: int, table: dict,
                  alternating: bool) -> dict:
    """The one check of a finite table of a k-linear map of ``parity`` on
    ``space``, on the ``alternating`` or the symmetric side of
    ``koszul_sort``.  The arity must be at least 1, each key an
    ``arity``-tuple of basis indices, canonical on that side, and each
    value a coordinate dict over the basis of parity p(map) + sum of the
    key's parities.  Zero entries and empty values are dropped; a value
    without zeros is kept as the same dict.  A violation raises
    ValueError."""
    if arity < 1:
        raise ValueError("arity must be at least 1")
    dim, par = space.dim, space.parities
    out = {}
    for key, val in table.items():
        key = tuple(key)
        if len(key) != arity:
            raise ValueError("key %r has wrong length" % (key,))
        if not all(i in range(dim) for i in key):
            raise ValueError("key %r names an index outside 0..%d" % (key, dim - 1))
        ck, sgn = koszul_sort(key, par, alternating)
        if sgn == 0:
            raise ValueError("key %r vanishes by %s"
                             % (key, "alternation" if alternating else "symmetry"))
        if ck != key:
            raise ValueError("table key %r is not canonically sorted" % (key,))
        if not all(i in range(dim) for i in val):
            raise ValueError("value at key %r names an index outside 0..%d"
                             % (key, dim - 1))
        if not all(val.values()):
            val = {i: c for i, c in val.items() if c}
        if not val:
            continue
        got = space.parity_of(val)
        if got is None:
            raise ValueError("value at key (%s) mixes parities"
                             % ", ".join(space.labels[i] for i in key))
        if got != (parity + sum(par[i] for i in key)) % 2:
            raise ValueError("value parity mismatch at key %r" % (key,))
        out[key] = val
    return out


class MultiMap:
    """A supersymmetric k-linear map S^k(V) -> V, k >= 1, as a table.

    The table holds one coordinate dict per canonically sorted argument
    tuple (indices ascending, odd indices distinct), as
    ``checked_table`` keeps it.  ``parity`` is the parity of the map
    itself and every stored value must satisfy p(value) = parity + sum
    of argument parities.
    """

    __slots__ = ("space", "arity", "parity", "table")

    def __init__(self, space: SuperSpace, arity: int, parity: int, table: dict | None = None):
        self.space = space
        self.arity = arity
        self.parity = parity % 2
        self.table = checked_table(space, arity, self.parity, table or {}, alternating=False)


def bracket_to_symmetric(space: SuperSpace, arity: int, bracket_parity: int, eval_fn) -> MultiMap:
    """Transport an anticommutative bracket on V to its symmetric twin on
    the parity reversal of V.

    ``eval_fn`` maps an alternating index tuple to the coordinate dict of
    its bracket in V.  The twin lives on space.reversed(); its parity is
    bracket_parity + arity - 1.  Anticommutativity of the input is
    verified on adjacent transpositions; a violation raises ValueError
    with the witness tuple.
    """
    if arity < 2:
        raise ValueError("transport needs arity >= 2")
    pi = space.reversed()
    par, reduced = space.parities, space.field.reduced
    table = {}
    # the canonical tuples of the alternating side on V are those of the
    # symmetric side on its reversal
    for key in canonical_tuples(range(space.dim), arity, par):
        val = eval_fn(key)
        for pos in range(arity - 1):
            # the supplied bracket must behave alternating off the
            # canonical tuples too, so probe it on the swapped tuple
            swapped = key[:pos] + (key[pos + 1], key[pos]) + key[pos + 2:]
            want = -1 if not (par[key[pos]] and par[key[pos + 1]]) else 1
            if eval_fn(swapped) != reduced({i: want * c for i, c in val.items()}):
                raise ValueError("input bracket is not anticommutative at %r" % (swapped,))
        if conversion_sign([pi.parities[i] for i in key]) < 0:
            val = reduced({i: -c for i, c in val.items()})
        table[key] = val
    return MultiMap(pi, arity, (bracket_parity + arity - 1) % 2, table)
