"""n-ary superalgebras with alternating brackets, and the generalized
Jacobi identity (the n-ary derivation law) as an exactly computed
defect.

The identity checked is, with alpha the parity of the bracket itself and
d = alpha + p(a_1) + .. + p(a_{n-1}) the parity of the inner map
ad_a = [a_1..a_{n-1}, .] (``inner_parity``):

  [a_1..a_{n-1},[b_1..b_n]]
    = (-1)^{alpha d} sum_k (-1)^{d(p(b_1)+..+p(b_{k-1}))}
                           [b_1.. [a_1..a_{n-1}, b_k] .. b_n]

For fixed a it is the derivation law of ad_a, so the identity and the
derivation law of any map run through one kernel that adds each signed
term into one coordinate dict through ``linalg.vec_add_scaled`` and
never divides.  Every bracket the kernel reads, [b] and [b_1.. k .. b_n]
included, is +-ad_c(k) for an (n-1)-tuple c, and one table per check
holds each ad_c(k) once, as a sign and the canonical bracket's
coordinates; the images of ad_a are the table's row a.  Over F_p those
coordinates are the carrier's own ints in 0..p-1, and the kernel
reduces each entry where it stores it: a defect is computed in F_p and
comes back without zeros.

The defect is linear in ad_a, so ``check_filippov`` scans only a basis
of the inner maps.  Proof: fix the parity of a and a b-block.  The
kernel's signs ``lead``, ``par & before`` and the slot signs depend on
that parity and on b only, so the defect of (a, b) is one fixed linear
map of the signed images (-1)^s ad_a(k), for k in the keys the kernel
reads: the keys of b and the keys of the value [b].  Let R be the union
of those keys over every b-block.  If the signed rows of ad_a on R
satisfy ad_a = sum_i l_i ad_{a_i} with every a_i of a's parity, then
defect(a, b) = sum_i l_i defect(a_i, b) for every b.  Hence the defects
of an independent family (``independent_tuples``: one ``Span`` per
parity of a, over the carrier's own field, since a relation over QQ can
fail mod p) decide all len(a) * len(b) instances.  Over F_p the kernel
computes in F_p, where the relation holds, so the argument is the same
there.  The family is taken greedily in scan order, so the first a
that fails is in it: an a left out is a combination of kept tuples
before it, and those all pass when a is the first to fail.  The first
nonzero defect of the basis scan is therefore the first of the plain
scan of every pair, and its instance count is read off a's position.

A polynomial carrier may declare two facts, each with its hand proof in
the carrier's docstring; a carrier that declares neither is checked as
above.

* ``determining_keys()``: keys D such that a linear relation among the
  inner maps that holds on D holds on every element, so on R, and the
  argument above runs with the rows on D.  ``independent_tuples`` reads
  them when the checked keys hold D, so no bracket off the window is
  asked to pick the basis.  Where D also lies in R, as on the windows
  of S and W, a relation holds on D iff it holds on R, and the kept
  tuples are those on R.
* ``key_symmetries()``: key maps g, each an injective relabelling of
  even keys with [g k_1 .. g k_n] = e_g g[k_1 .. k_n] for one sign e_g
  and every key tuple, g acting on coordinates by relabelling their
  keys.  Each side of the identity holds two brackets, so
  defect(g a, g b) = e_g^2 g defect(a, b) = g defect(a, b), and the two
  vanish together.  When g maps the checked keys onto
  themselves, g b sorts, up to a sign, to a b-block of the scan, and
  g^-1 a to an a-tuple of it.  So if every kept a passes against b,
  every a does, and then every a passes against the sorted g b as well.
  Hence one b-block per orbit of the group the maps generate
  (``block_representatives``) decides all instances.  The first nonzero
  defect of that pass only says the check fails; the scan of every
  b-block then runs again, so the witness and the count stay those of
  the plain scan.

The kernel is written against a small duck-typed carrier protocol, so
it runs over finite tables and over polynomial carriers alike:
``arity``, ``bracket_parity``, ``key_parity(k)``,
``bracket_keys(tuple)``, which returns the bracket's coordinates as a
read-only dict key -> nonzero scalar, and ``show(coords)``, which
renders such a dict for a witness.  Every element the kernel takes or
returns, a defect or a derivation's image included, is such a dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .fields import LiteralError, field_from_name, parse_int
from .linalg import Span, vec_add_scaled
from .multilinear import canonical_tuples, koszul_sort
from .superspace import EVEN, ODD, SuperSpace

__all__ = [
    "FiniteNAryAlgebra",
    "filippov_defect",
    "FJReport",
    "ad_table",
    "independent_tuples",
    "block_representatives",
    "check_filippov",
    "identity_mode",
    "inner_parity",
    "derivation_defect",
    "serialize_table",
    "parse_table",
]


class FiniteNAryAlgebra:
    """Finite-dimensional n-ary superalgebra given by a bracket table:
    canonically sorted basis index tuples (ascending; an index may repeat
    only when its basis vector is odd) map to coordinate dicts {basis
    index: scalar}, kept without their zeros and read, never written."""

    def __init__(self, space: SuperSpace, arity: int, parity: int, table: dict):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.space = space
        self.arity = arity
        self.bracket_parity = parity % 2
        self.field = space.field
        self.table = {}
        for key, val in table.items():
            key = tuple(key)
            if len(key) != arity:
                raise ValueError("key %r has wrong length" % (key,))
            ck, sgn = koszul_sort(key, space.parities)
            if sgn == 0:
                raise ValueError("key %r vanishes by alternation" % (key,))
            if ck != key:
                raise ValueError("table key %r is not canonically sorted" % (key,))
            if not all(i in range(space.dim) for i in val):
                raise ValueError("value at key %r names an index outside 0..%d"
                                 % (key, space.dim - 1))
            if not all(val.values()):
                val = {i: c for i, c in val.items() if c}
            if not val:
                continue
            got = space.parity_of(val)
            if got is None:
                raise ValueError("value at key (%s) mixes parities"
                                 % ", ".join(space.labels[i] for i in key))
            if got != (self.bracket_parity + sum(space.parities[i] for i in key)) % 2:
                raise ValueError("value parity mismatch at key %r" % (key,))
            self.table[key] = val

    # -- carrier protocol -------------------------------------------------
    def keys(self):
        return range(self.space.dim)

    def key_parity(self, k) -> int:
        return self.space.parities[k]

    def bracket_keys(self, keys: tuple) -> dict:
        ck, sgn = koszul_sort(keys, self.space.parities)
        base = self.table.get(ck) if sgn else None
        if base is None:
            return _ZERO[1]
        return self.field.reduced({i: -c for i, c in base.items()}) if sgn < 0 else base

    def show(self, coords: dict) -> str:
        return self.space.show(coords)

    def __repr__(self):
        return "FiniteNAryAlgebra(arity=%d, dim=%d over %r)" % (
            self.arity,
            self.space.dim,
            self.field,
        )


class _Images(dict):
    """key -> a value taken on first use, e.g. a linear map's image."""

    def __init__(self, image):
        super().__init__()
        self._image = image

    def __missing__(self, k):
        got = self[k] = self._image(k)
        return got


# the entry of every vanishing bracket, its empty dict shared; read, never written
_ZERO = (0, {})


def ad_table(alg) -> _Images:
    """One check's brackets: an (n-1)-tuple c maps to the row of ad_c,
    key k -> (s, coordinates of the canonical bracket) with
    [c_1..c_{n-1}, k] = (-1)^s times them.  Each entry is one Koszul
    sort; the memo ``.brackets`` asks the carrier once per sorted tuple
    and keeps its coordinates as they come (``_ZERO``'s dict if zero).
    The table refers to the carrier, never the other way round."""
    parities = _Images(alg.key_parity)
    bracket = alg.bracket_keys
    brackets = _Images(lambda ck: bracket(ck) or _ZERO[1])

    def entry(keys):
        ck, sgn = koszul_sort(keys, parities)
        if sgn:
            v = brackets[ck]
            if v:
                return (sgn < 0, v)
        return _ZERO

    table = _Images(lambda c: _Images(lambda k: entry(c + (k,))))
    table.brackets = brackets
    return table


def _slots(alg, ads, keys: tuple) -> list:
    """Per position of ``keys``: its key x, the row of ad over the other
    keys c, and the parity bits relating [.. k ..] (k at x's place) to
    [c, k]: the parity before x, the parity after it (k passes it) and
    the position sign (n-1-pos)."""
    kp = alg.key_parity
    last = len(keys) - 1
    after = sum(kp(x) for x in keys) & 1
    before, out = 0, []
    for pos, x in enumerate(keys):
        px = kp(x)
        after ^= px
        out.append((x, ads[keys[:pos] + keys[pos + 1:]], before, after, (last - pos) & 1))
        before ^= px
    return out


def _defect(alg, images, slots, par: int) -> dict:
    """RHS - LHS of the derivation law for the map D of parity ``par``,
    whose images are entries (s, coordinates), on the keys of ``slots``,
    as carrier coordinates without zeros: each term goes in through
    ``vec_add_scaled``, which reduces over F_p where it stores.  Every
    sign is folded into the scalar of its term; an even carrier's
    all-plus terms never negate."""
    acc: dict = {}
    p = alg.field.p
    kp = alg.key_parity
    lead = par & alg.bracket_parity
    for x, row, before, after, pos_sign in slots:
        s_x, image = images[x]
        flip = lead ^ (par & before) ^ pos_sign ^ s_x
        for k, c in image.items():
            s, v = row[k]
            vec_add_scaled(acc, v, -c if flip ^ s ^ (after and kp(k)) else c, p)
    x, row = slots[-1][:2]
    s_out, value = row[x]  # the bracket of all the keys
    for k, c in value.items():
        s, v = images[k]
        vec_add_scaled(acc, v, c if s_out ^ s else -c, p)
    return acc


def _negated(alg, acc: dict) -> dict:
    """The defect LHS - RHS as carrier coordinates, from ``_defect``'s
    sum."""
    return alg.field.reduced({j: -v for j, v in acc.items()})


def inner_parity(alg, a_keys: tuple) -> int:
    """The parity alpha + p(a_1) + .. + p(a_{n-1}) of ad_a."""
    return (alg.bracket_parity + sum(alg.key_parity(k) for k in a_keys)) & 1


def filippov_defect(alg, a_keys: tuple, b_keys: tuple):
    """LHS minus RHS of the n-ary Jacobi law on basis keys, as carrier
    coordinates; empty iff the identity holds on this instance."""
    n = alg.arity
    a_keys, b_keys = tuple(a_keys), tuple(b_keys)
    if len(a_keys) != n - 1 or len(b_keys) != n:
        raise ValueError("need n-1 and n keys")
    ads = ad_table(alg)
    return _negated(alg, _defect(alg, ads[a_keys], _slots(alg, ads, b_keys),
                                 inner_parity(alg, a_keys)))


def independent_tuples(alg, ads, tuples, read) -> list:
    """The tuples a of ``tuples``, in order, whose row of ad_a on the keys
    ``read`` is independent of the rows of the tuples kept before it
    with the same parity.  The row is the vector {(position of k in
    ``read``, j): (-1)^s c} of the entries (s, {j: c}) of ``ads[a]``; it
    goes into one ``Span`` per parity of a over the carrier's field, and
    a is kept when its insert grew that span.  Over F_p the span reduces
    mod p, so a relation found holds mod p."""
    field = alg.field
    kp = alg.key_parity
    read = list(read)
    spans = {0: Span(field), 1: Span(field)}
    kept = []
    for a in tuples:
        row = ads[a]
        vec = {}
        for pos, k in enumerate(read):
            s, v = row[k]
            for j, c in v.items():
                vec[(pos, j)] = -c if s else c
        if vec and spans[sum(kp(x) for x in a) & 1].insert(vec):
            kept.append(a)
    return kept


@dataclass
class FJReport:
    ok: bool
    instances: int  # instances proved, or scanned up to the witness
    witness: object  # None or (a_keys, b_keys, defect repr)
    mode: str  # 'full' or 'sorted'
    defects: int  # defects evaluated


def identity_mode(nkeys: int, arity: int) -> str:
    """'full' for at most 6 keys and 10^5 ordered instances, else 'sorted'."""
    full = nkeys <= 6 and nkeys ** (2 * arity - 1) <= 10 ** 5
    return "full" if full else "sorted"


def block_representatives(alg, keys, blocks, mode: str):
    """The first block, in scan order, of each orbit of ``blocks`` under
    the group generated by the carrier's ``key_symmetries()``, the image
    of a block sorted as the scan lists it ('sorted' mode: by position
    in ``keys``, which need not be key order).  None when the carrier
    declares no map or one of them does not map ``keys`` onto itself."""
    declared = getattr(alg, "key_symmetries", None)
    maps = declared() if declared else ()
    keyset = set(keys)
    if not maps or any({g(k) for k in keyset} != keyset for g in maps):
        return None
    pos = {k: i for i, k in enumerate(keys)}
    order = (lambda t: tuple(sorted(t, key=pos.__getitem__))) if mode == "sorted" else tuple
    seen, reps = set(), []
    for block in blocks:
        if block in seen:
            continue
        reps.append(block)
        seen.add(block)
        todo = [block]
        while todo:
            block = todo.pop()
            for g in maps:
                image = order(map(g, block))
                if image not in seen:
                    seen.add(image)
                    todo.append(image)
    return reps


def _read_set(ads, blocks) -> list:
    """The keys whose images the kernel reads: those of each b-block and
    those of its value [b], in order of first use."""
    read = {}
    for b_keys in blocks:
        read.update(dict.fromkeys(b_keys))
        read.update(dict.fromkeys(ads[b_keys[:-1]][b_keys[-1]][1]))
    return list(read)


def _scan(alg, ads, kept, blocks) -> tuple:
    """(defects evaluated, first failure) of each a-tuple of ``kept``
    against every b-block in order; a failure is (a_keys, the b-block's
    index, the kernel's sum), or None when every defect vanishes."""
    slots = [_slots(alg, ads, b_keys) for b_keys in blocks]
    defects = 0
    for a_keys in kept:
        par = inner_parity(alg, a_keys)
        images = ads[a_keys]  # the images of ad_a are its row
        for j, block in enumerate(slots):
            d = _defect(alg, images, block, par)
            defects += 1
            if d:
                return defects, (a_keys, j, d)
    return defects, None


def check_filippov(alg, keys=None, mode: str = "auto") -> FJReport:
    """Check the n-ary Jacobi law over basis-key instances.

    mode 'full' runs every ordered tuple pair (finite carriers only);
    'sorted' runs canonically sorted tuples in each block, which spans
    all instances since the defect is multilinear and alternating in
    both blocks.  'auto' asks :func:`identity_mode`.

    Only the a-tuples of an independent family of inner maps are
    scanned, against one b-block per orbit of the carrier's declared key
    symmetries or else against every b-block (see the module
    docstring); the verdict, the witness and the instance count are
    those of the scan of every pair.
    """
    n = alg.arity
    keys = list(alg.keys() if keys is None else keys)
    if mode == "auto":
        mode = identity_mode(len(keys), n)
    if mode == "full":
        a_iter = list(product(keys, repeat=n - 1))
        b_iter = list(product(keys, repeat=n))
    elif mode == "sorted":
        # canonical tuples index a spanning family of instances
        parities = [alg.key_parity(k) for k in keys]
        a_iter = list(canonical_tuples(keys, n - 1, parities))
        b_iter = list(canonical_tuples(keys, n, parities))
    else:
        raise ValueError("unknown mode %r" % mode)
    ads = ad_table(alg)
    declared = getattr(alg, "determining_keys", None)
    read = declared() if declared else None
    if read is None or not set(read) <= set(keys):
        read = _read_set(ads, b_iter)
    kept = independent_tuples(alg, ads, a_iter, read)
    defects, failure = 0, None
    reps = block_representatives(alg, keys, b_iter, mode)
    if reps is not None:
        defects, failure = _scan(alg, ads, kept, reps)
    if reps is None or failure:
        more, failure = _scan(alg, ads, kept, b_iter)
        defects += more
    if failure:
        a_keys, j, d = failure
        count = a_iter.index(a_keys) * len(b_iter) + j + 1
        return FJReport(False, count, (a_keys, b_iter[j], alg.show(_negated(alg, d))),
                        mode, defects)
    return FJReport(True, len(a_iter) * len(b_iter), None, mode, defects)


def derivation_defect(alg, dmap, dparity: int, keys: tuple, ads=None):
    """D[x_1..x_n] - (-1)^{alpha p(D)} sum_k (+-) [x_1 .. D x_k .. x_n]
    on a basis key tuple, as carrier coordinates; dmap sends a key to
    the coordinates of its image.  A loop over many maps passes one
    ``ads`` table (from ``ad_table``) to every call."""
    keys = tuple(keys)
    slots = _slots(alg, ad_table(alg) if ads is None else ads, keys)
    return _negated(alg, _defect(alg, _Images(lambda k: (0, dmap(k))), slots, dparity))


# -- plain-text bracket tables --------------------------------------------

def serialize_table(alg: FiniteNAryAlgebra) -> str:
    """Header 'arity field dim parities', then one line per table key,
    1-based indices: 'i1 i2 ... -> c*e_k + ...'."""
    lines = [
        "%d %s %d %s"
        % (
            alg.arity,
            alg.field.name,
            alg.space.dim,
            "".join("o" if p else "e" for p in alg.space.parities),
        )
    ]
    for key in sorted(alg.table):
        parts = ["%s*e%d" % (c, i + 1) for i, c in sorted(alg.table[key].items())]
        lines.append(
            "%s -> %s" % (" ".join(str(i + 1) for i in key), " + ".join(parts))
        )
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> FiniteNAryAlgebra:
    """The algebra of a ``serialize_table`` text.  Every number is an
    ASCII literal (``fields.parse_int``); a malformed one raises
    ValueError naming its line."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty table")
    ln = lines[0]
    try:
        head = ln.split()
        if len(head) != 4:
            raise ValueError("bad header %r" % ln)
        arity = parse_int(head[0])
        if arity < 2:
            raise ValueError("table arity must be at least 2, got %d" % arity)
        field = field_from_name(head[1])
        dim = parse_int(head[2])
        pstr = head[3]
        if len(pstr) != dim or set(pstr) - {"e", "o"}:
            raise ValueError("bad parity string %r" % (pstr,))
        parities = [ODD if ch == "o" else EVEN for ch in pstr]
        table = {}
        for ln in lines[1:]:
            if "->" not in ln:
                raise ValueError("bad table line %r" % ln)
            left, right = ln.split("->", 1)
            key = tuple(parse_int(tok) - 1 for tok in left.split())
            if any(not 0 <= i < dim for i in key):
                raise ValueError("key index out of range 1..%d in %r" % (dim, ln))
            if key in table:
                raise ValueError("repeated key in %r" % (ln,))
            coords = {}
            for part in right.split("+"):
                part = part.strip()
                if not part or part == "0":
                    continue
                if "*" not in part:
                    raise ValueError("bad term %r" % (part,))
                cstr, lab = part.rsplit("*", 1)
                lab = lab.strip()
                if not lab.startswith("e"):
                    raise ValueError("bad basis label %r" % lab)
                idx = parse_int(lab[1:]) - 1
                if not 0 <= idx < dim:
                    raise ValueError("basis label %r out of range e1..e%d" % (lab, dim))
                vec_add_scaled(coords, {idx: field.parse(cstr.strip())}, 1, field.p)
            table[key] = coords
    except LiteralError as exc:
        raise ValueError("%s in %r" % (exc, ln)) from None
    space = SuperSpace(field, ["e%d" % (i + 1) for i in range(dim)], parities)
    # parity of the bracket inferred from the first value of one parity
    par = next(((vp - sum(parities[i] for i in key)) % 2 for key, val in table.items()
                if (vp := space.parity_of(val)) is not None), (arity + 1) % 2)
    return FiniteNAryAlgebra(space, arity, par, table)
