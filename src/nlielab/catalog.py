"""The four families of simple n-ary brackets, as ready-made carriers:

  algebra_O(n)   (n+1)-dimensional, from the epsilon tensor and a
                 symmetric nondegenerate form
  algebra_S(n)   Jacobian determinant on polynomials in n variables,
                 modulo constants
  algebra_W(n)   bordered Jacobian determinant on polynomials in n-1
                 variables (first row the functions themselves)
  algebra_SW(n)  n-1 tagged copies of one-variable polynomials with a
                 Wronskian rule on the repeated tag

plus generalized determinant brackets built from an arbitrary list of
commuting-variable derivation operators.  With bordering, m operators
D_i = sum_k M_ik d_k in m variables give det(M) times the bordered
Jacobian bracket W, and more operators than variables give the zero
bracket.  Both satisfy the n-ary Jacobi law (phi * W is W after the
substitution f -> f / psi, phi = psi^(1-n)), so span closure of the
operators under commutators is not necessary for the law:
{d, x^2 d} and {x d1, x d2 + d1} satisfy the law with non-closed spans.

Polynomial carriers implement the same key protocol as finite ones:
elements are dicts mapping monomial keys to coefficients, and brackets
of basis keys are cached after canonical sorting.  Every key is even,
so ``koszul_sort`` without parities gives both the permutation signs of
the determinants and the canonical keys of the brackets.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from .fields import QQ, Field
from .linalg import invert_dense, vec_add_scaled
from .multilinear import koszul_sort
from .nlie import FiniteNAryAlgebra
from .polysuper import DiffOp, SuperPolyRing
from .superspace import EVEN, SuperSpace, SuperVector

__all__ = [
    "algebra_O",
    "algebra_S",
    "algebra_W",
    "algebra_SW",
    "JacobianNAry",
    "BorderedNAry",
    "TaggedNAry",
    "GeneralizedJacobianNAry",
    "dzhumadildaev_closed",
    "monomials_upto",
    "parse_form",
    "serialize_form",
]


def algebra_O(n: int, field: Field = QQ, form=None) -> FiniteNAryAlgebra:
    """(n+1)-dimensional n-ary bracket: [e_{i_1}..e_{i_n}] is the sign of
    the permutation (i_1..i_n j) times the form-dual of the missing
    basis vector e_j.  ``form`` is a symmetric invertible matrix, the
    identity by default; it is attached to the result as ``.form``."""
    if n < 2:
        raise ValueError("need n >= 2")
    dim = n + 1
    if form is None:
        B = [
            [field.one() if i == j else field.zero() for j in range(dim)]
            for i in range(dim)
        ]
    else:
        B = [[field.coerce(v) for v in row] for row in form]
        if len(B) != dim or any(len(r) != dim for r in B):
            raise ValueError("form must be %d x %d" % (dim, dim))
        for i in range(dim):
            for j in range(i):
                if B[i][j] != B[j][i]:
                    raise ValueError("form must be symmetric")
    Binv = invert_dense(field, B)
    space = SuperSpace(field, ["e%d" % (i + 1) for i in range(dim)], [EVEN] * dim)
    table = {}
    for combo in combinations(range(dim), n):
        j = next(i for i in range(dim) if i not in combo)
        s = koszul_sort(combo + (j,))[1]
        coords = {}
        for k in range(dim):
            c = Binv[k][j]
            if c:
                coords[k] = c if s > 0 else -c
        table[combo] = SuperVector(space, coords)
    alg = FiniteNAryAlgebra(space, n, 0, table)
    alg.form = B
    return alg


# -- polynomial carriers ----------------------------------------------------

def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(u + v for u, v in zip(ka, kb))
            c = ca * cb
            w = out.get(key)
            s = c if w is None else w + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _det(mat) -> dict:
    """Determinant of a matrix of dict-polynomials by expansion over
    permutations; fine for the small arities used here."""
    n = len(mat)
    acc: dict = {}
    for perm in permutations(range(n)):
        entries = []
        dead = False
        for i in range(n):
            e = mat[i][perm[i]]
            if not e:
                dead = True
                break
            entries.append(e)
        if dead:
            continue
        s = koszul_sort(perm)[1]
        prod = entries[0]
        for e in entries[1:]:
            prod = _poly_mul(prod, e)
            if not prod:
                break
        if not prod:
            continue
        vec_add_scaled(acc, prod, s)
    return acc


def monomials_upto(nvars: int, window: int, include_constant: bool = True):
    """Exponent tuples of total degree <= window, graded order."""
    out = []
    for d in range(0 if include_constant else 1, window + 1):
        out.extend(
            sorted(
                alpha
                for alpha in product(range(d + 1), repeat=nvars)
                if sum(alpha) == d
            )
        )
    return out


# the cached value of every vanishing bracket; read, never written
_EMPTY: dict = {}


class PolyNAryAlgebra:
    """Shared machinery: dict elements, cached canonical brackets.  The
    cache shares one empty dict among the vanishing brackets and one
    tuple among equal monomial keys of its values."""

    bracket_parity = 0

    def __init__(self, field: Field, arity: int):
        self.field = field
        self.arity = arity
        self._cache: dict = {}
        self._monomials: dict = {}

    def key_parity(self, k) -> int:
        return EVEN

    def raw_bracket(self, keys: tuple) -> dict:
        raise NotImplementedError

    def _dmono(self, alpha: tuple, i: int) -> dict:
        """d/dx_i of the monomial with exponents ``alpha``."""
        e = alpha[i]
        if not e:
            return {}
        key = alpha[:i] + (e - 1,) + alpha[i + 1:]
        return {key: self.field.coerce(e)}

    def bracket_keys(self, keys: tuple) -> dict:
        ck, sgn = koszul_sort(keys)
        if sgn == 0:
            return {}
        got = self._cache.get(ck)
        if got is None:
            intern = self._monomials.setdefault
            got = {intern(k, k): v for k, v in self.raw_bracket(ck).items()} or _EMPTY
            self._cache[ck] = got
        if sgn < 0:
            return {k: -v for k, v in got.items()}
        return got

    def window_keys(self, window: int):
        raise NotImplementedError

    def coords(self, elem: dict) -> dict:
        return elem

    def element(self, coords: dict) -> dict:
        return coords

    def elem_is_zero(self, a: dict) -> bool:
        return not a


class JacobianNAry(PolyNAryAlgebra):
    """[f_1..f_n] = det(d f_j / d x_i) on monomials in n variables;
    with ``quotient`` the constant term is discarded and the constant
    monomial is excluded from the key window."""

    def __init__(self, field: Field, arity: int, quotient: bool = True):
        super().__init__(field, arity)
        self.nvars = arity
        self.quotient = quotient
        self._zero_key = (0,) * self.nvars

    def raw_bracket(self, keys: tuple) -> dict:
        mat = [[self._dmono(keys[j], i) for j in range(self.arity)] for i in range(self.nvars)]
        out = _det(mat)
        if self.quotient:
            out.pop(self._zero_key, None)
        return out

    def window_keys(self, window: int):
        return monomials_upto(self.nvars, window, include_constant=not self.quotient)


class BorderedNAry(PolyNAryAlgebra):
    """[f_1..f_n] = det of the matrix with first row f_j and remaining
    rows d f_j / d x_i, on monomials in n-1 variables."""

    def __init__(self, field: Field, arity: int):
        super().__init__(field, arity)
        self.nvars = arity - 1
        self._zero_key = (0,) * self.nvars

    def raw_bracket(self, keys: tuple) -> dict:
        top = [[{keys[j]: self.field.one()} for j in range(self.arity)]]
        rows = [
            [self._dmono(keys[j], i) for j in range(self.arity)]
            for i in range(self.nvars)
        ]
        return _det(top + rows)

    def window_keys(self, window: int):
        return monomials_upto(self.nvars, window)


class TaggedNAry(PolyNAryAlgebra):
    """n-1 tagged copies of one-variable monomials; keys (tag, exponent).
    A bracket is nonzero only when the tags cover 1..n-1 with exactly one
    tag k repeated; the two monomials at tag k combine by the Wronskian
    f g' - f' g (up to sign) and the other factors multiply in, the result
    carrying tag k.  ``alt_sign`` flips the global sign convention."""

    def __init__(self, field: Field, arity: int, alt_sign: bool = False):
        super().__init__(field, arity)
        self.ntags = arity - 1
        self.alt_sign = alt_sign

    def raw_bracket(self, keys: tuple) -> dict:
        tags = [t for t, _ in keys]
        counts = {}
        for t in tags:
            counts[t] = counts.get(t, 0) + 1
        doubled = [t for t, c in counts.items() if c == 2]
        if len(counts) != self.ntags or len(doubled) != 1 or set(counts) != set(
            range(1, self.ntags + 1)
        ):
            return {}
        k = doubled[0]
        # keys are sorted tag-major, so the tag-k pair sits at positions k-1, k
        a = keys[k - 1][1]
        b = keys[k][1]
        coeff = self.field.coerce(a - b)
        if not coeff:
            return {}
        total = sum(e for _, e in keys) - 1
        exp = (self.ntags + 1 + k) % 2
        if self.alt_sign:
            exp ^= 1
        if exp:
            coeff = -coeff
        return {(k, total): coeff}

    def window_keys(self, window: int):
        return [(t, e) for t in range(1, self.ntags + 1) for e in range(window + 1)]


class GeneralizedJacobianNAry(PolyNAryAlgebra):
    """Determinant bracket from an explicit list of derivation operators
    in commuting variables: entry (i,j) is D_i applied to f_j, with an
    optional bordered first row of the functions themselves."""

    def __init__(self, field: Field, nvars: int, ops, bordered: bool = False,
                 quotient: bool = False):
        self.ops = list(ops)
        arity = len(self.ops) + (1 if bordered else 0)
        super().__init__(field, arity)
        self.nvars = nvars
        self.bordered = bordered
        self.quotient = quotient
        self.ring = SuperPolyRing(field, nvars, 0)
        self._zero_key = (0,) * nvars
        for op in self.ops:
            for g in op.coeffs:
                if g[0] != "x":
                    raise ValueError("operators must involve x-derivatives only")

    def _apply(self, op: DiffOp, alpha: tuple) -> dict:
        mono = self.ring.monomial(alpha, ())
        out = op.apply(mono)
        res = {}
        for (a, xis), c in out.terms.items():
            if xis:
                raise ValueError("operator produced an anticommuting term")
            res[a] = c
        return res

    def raw_bracket(self, keys: tuple) -> dict:
        mat = []
        if self.bordered:
            mat.append([{keys[j]: self.field.one()} for j in range(self.arity)])
        for op in self.ops:
            mat.append([self._apply(op, keys[j]) for j in range(self.arity)])
        out = _det(mat)
        if self.quotient:
            out.pop(self._zero_key, None)
        return out

    def window_keys(self, window: int):
        return monomials_upto(self.nvars, window, include_constant=not self.quotient)


def algebra_S(n: int, field: Field = QQ) -> JacobianNAry:
    if n < 2:
        raise ValueError("need n >= 2")
    return JacobianNAry(field, n, quotient=True)


def algebra_W(n: int, field: Field = QQ) -> BorderedNAry:
    if n < 2:
        raise ValueError("need n >= 2")
    return BorderedNAry(field, n)


def algebra_SW(n: int, field: Field = QQ, alt_sign: bool = False) -> TaggedNAry:
    if n < 3:
        raise ValueError("need n >= 3")
    return TaggedNAry(field, n, alt_sign=alt_sign)


def dzhumadildaev_closed(ops) -> tuple:
    """Is the field span of the given derivation operators closed under
    commutators?  Returns (bool, witness index pair or None).  This tests
    span closure only, not the n-ary Jacobi law of their bracket."""
    ops = list(ops)
    if not ops:
        return True, None
    from .linalg import Span

    field = ops[0].ring.field
    span = Span(field)
    for op in ops:
        span.insert(op.vectorize())
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            br = ops[i].bracket(ops[j])
            if not span.contains(br.vectorize()):
                return False, (i, j)
    return True, None


def parse_form(text: str, field: Field):
    rows = []
    for ln in text.splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        rows.append([field.parse(tok) for tok in ln.replace(",", " ").split()])
    if not rows:
        raise ValueError("empty form")
    return rows


def serialize_form(rows) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"
