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
elements are dicts mapping monomial keys to coefficients, and a bracket
of basis keys is computed on its canonical sort.  Every key is even,
so ``koszul_sort`` without parities gives the canonical keys of the
brackets and their signs.

On monomial keys x^(a_1), .., x^(a_n) the S and W brackets are one
monomial, x^(a_1+..+a_n-(1,..,1)), times the integer determinant of the
exponent matrix (for W bordered by a row of ones).  There is one
determinant, ``_det``, expanded row by row and cut at its zero entries:
it serves that integer matrix and the entries D_i f_j of operator brackets.
"""

from __future__ import annotations

from itertools import combinations, product

from .fields import QQ, Field, LiteralError
from .linalg import invert_dense, span_of
from .multilinear import koszul_sort
from .nlie import FiniteNAryAlgebra
from .polysuper import DiffOp, SuperPolyRing
from .superspace import EVEN, SuperSpace

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
        table[combo] = field.reduced(coords)
    alg = FiniteNAryAlgebra(space, n, 0, table)
    alg.form = B
    return alg


# -- polynomial carriers ----------------------------------------------------

def _det(mat, zero=0):
    """The determinant of ints or ``SuperPoly``s, expanded row by row."""
    return _expand(mat, 0, 1, 0, tuple(range(len(mat))), zero)


def _expand(mat, i, term, odd, free, total):
    """``total`` plus term * mat[i][c_i] * .., signed, over the bijections c
    of rows i.. onto the columns ``free`` in Leibniz (lexicographic) order,
    so a ``SuperPoly`` sum builds its terms in the order of the full
    expansion.  Entries are only multiplied, added and subtracted, and a
    zero one must test false: a product stops there, with every permutation
    through it.  The k-th free column adds k inversions, one per free
    column left of it that a later row takes; ``odd`` is their parity."""
    if len(free) == 2:  # the last two rows, in place
        p, q = free
        if (e := mat[i][p]) and (f := mat[i + 1][q]):
            total = total - term * e * f if odd else total + term * e * f
        if (e := mat[i][q]) and (f := mat[i + 1][p]):
            total = total + term * e * f if odd else total - term * e * f
        return total
    if not free:
        return total - term if odd else total + term
    for k, j in enumerate(free):
        if e := mat[i][j]:
            total = _expand(mat, i + 1, term * e, odd ^ k & 1, free[:k] + free[k + 1:], total)
    return total


def _monomial_bracket(field: Field, exponents, mat, quotient: bool) -> dict:
    """{x^(a_1+..+a_n-(1,..,1)): det(mat)} on monomial keys x^(a_j), whose
    exponents are given by variable (row i holds a_1[i]..a_n[i]); empty
    when the determinant vanishes in ``field`` or, with ``quotient``,
    when the monomial is the constant."""
    c = field.coerce(_det(mat))
    if not c:
        return {}
    key = tuple(sum(row) - 1 for row in exponents)
    if quotient and not any(key):
        return {}
    return {key: c}


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


# the value of every vanishing bracket; read, never written
_EMPTY: dict = {}


class PolyNAryAlgebra:
    """Shared machinery: dict elements keyed by monomial, brackets on
    canonical sorts, witnesses shown as the dict's ``repr``, no
    cache of its own (``nlie.ad_table`` keeps one per check).  Vanishing
    brackets share one empty dict, equal monomial keys one tuple."""

    bracket_parity = 0

    def __init__(self, field: Field, arity: int):
        if arity < 2:
            raise ValueError("need n >= 2")
        self.field = field
        self.arity = arity
        self._monomials: dict = {}

    def key_parity(self, k) -> int:
        return EVEN

    def raw_bracket(self, keys: tuple) -> dict:
        raise NotImplementedError

    def bracket_keys(self, keys: tuple) -> dict:
        ck, sgn = koszul_sort(keys)
        if sgn == 0:
            return {}
        intern = self._monomials.setdefault
        got = {intern(k, k): v for k, v in self.raw_bracket(ck).items()} or _EMPTY
        return self.field.reduced({k: -v for k, v in got.items()}) if sgn < 0 else got

    def window_keys(self, window: int):
        raise NotImplementedError

    def show(self, coords: dict) -> str:
        return repr(coords)

    def _window_two(self, carrier):
        """``carrier`` and its window 2, which decides the identity by the
        order-2 lemma of ``nlie`` when 2 is invertible; None over GF(2)."""
        return None if self.field.p == 2 else (carrier, carrier.window_keys(2))


def _variable_swaps(nvars: int) -> list:
    """The adjacent transpositions x_i <-> x_{i+1} of the variables, as
    maps of monomial keys (exponent tuples)."""
    return [lambda k, i=i: k[:i] + (k[i + 1], k[i]) + k[i + 2:] for i in range(nvars - 1)]


class JacobianNAry(PolyNAryAlgebra):
    """[f_1..f_n] = det(d f_j / d x_i) on monomials in n variables;
    with ``quotient`` the constant term is discarded and the constant
    monomial is excluded from the key window.

    It declares three facts that ``nlie.check_filippov`` uses.

    Key symmetries: let s swap x_i and x_{i+1}.  On monomial keys s
    swaps rows i and i+1 of the exponent matrix, so the determinant
    changes sign, and it swaps entries i and i+1 of the row sums, so the
    value's monomial is s of the old one.  Hence
    [s k_1..s k_n] = -s[k_1..k_n], and s maps the constant to itself,
    so the quotient keeps the formula.

    Determining keys: expanding det along the column of f gives
    [a_1..a_{n-1}, f] = sum_i C_i d f / d x_i with polynomial cofactors
    C_i, so a combination Z of inner maps is a vector field
    sum_i Z_i d/dx_i, modulo constants with ``quotient``.  Say Z
    vanishes on the monomials of degree 1 and 2.  Then every
    Z(x_j) = Z_j is a constant c_j, and for j != k the constant
    Z(x_j x_k) = c_j x_k + c_k x_j gives c_j = c_k = 0 (n >= 2, in any
    characteristic).  So Z = 0 on every polynomial.  Without the
    quotient, Z(x_j) = Z_j = 0 already, so degree 1 suffices.

    Certificate: each bracket has order at most 1 in each argument, so
    the defect of the identity has order at most 2 in each, and window 2
    of the unquotiented carrier, constant included, decides it there.
    The lemma fails modulo constants, but constants are central, so the
    quotient's defect is the unquotiented one modulo constants.
    """

    def __init__(self, field: Field, arity: int, quotient: bool = True):
        super().__init__(field, arity)
        self.nvars = arity
        self.quotient = quotient

    def raw_bracket(self, keys: tuple) -> dict:
        exponents = list(zip(*keys))
        return _monomial_bracket(self.field, exponents, exponents, self.quotient)

    def window_keys(self, window: int):
        return monomials_upto(self.nvars, window, include_constant=not self.quotient)

    def key_symmetries(self) -> list:
        return _variable_swaps(self.nvars)

    def certificate(self):
        return self._window_two(type(self)(self.field, self.arity, quotient=False))

    def determining_keys(self):
        if self.quotient and self.nvars < 2:
            return None  # d/dx on one variable modulo constants: x^2 -> 2x is 0 in char 2
        return monomials_upto(self.nvars, 2 if self.quotient else 1,
                              include_constant=not self.quotient)


class BorderedNAry(PolyNAryAlgebra):
    """[f_1..f_n] = det of the matrix with first row f_j and remaining
    rows d f_j / d x_i, on monomials in n-1 variables.

    It declares three facts that ``nlie.check_filippov`` uses.

    Key symmetries: let s swap x_i and x_{i+1}.  On monomial keys s
    swaps rows i and i+1 of the exponent matrix and leaves the bordering
    row of ones in place, so the determinant changes sign, and the
    value's monomial is s of the old one: [s k_1..s k_n] = -s[k_1..k_n].

    Determining keys: expanding det along the column of f gives
    [a_1..a_{n-1}, f] = C_0 f + sum_i C_i d f / d x_i with polynomial
    cofactors, so a combination Z of inner maps is a multiplier g plus a
    vector field sum_i Z_i d/dx_i.  If Z vanishes on the monomials of
    degree at most 1, then g = Z(1) = 0 and Z_j = Z(x_j) - g x_j = 0, so
    Z = 0 on every polynomial, in any characteristic.

    Certificate: each bracket has order at most 1 in each argument, so
    the defect of the identity has order at most 2 in each, and window 2
    decides it.
    """

    def __init__(self, field: Field, arity: int):
        super().__init__(field, arity)
        self.nvars = arity - 1

    def raw_bracket(self, keys: tuple) -> dict:
        exponents = list(zip(*keys))
        return _monomial_bracket(self.field, exponents, [(1,) * self.arity] + exponents,
                                 False)

    def window_keys(self, window: int):
        return monomials_upto(self.nvars, window)

    def key_symmetries(self) -> list:
        return _variable_swaps(self.nvars)

    def certificate(self):
        return self._window_two(self)

    def determining_keys(self):
        return monomials_upto(self.nvars, 1)


class TaggedNAry(PolyNAryAlgebra):
    """n-1 tagged copies of one-variable monomials; keys (tag, exponent).
    A bracket is nonzero only when the tags cover 1..n-1 with exactly one
    tag k repeated; the two monomials at tag k combine by the Wronskian
    f g' - f' g (up to sign) and the other factors multiply in, the result
    carrying tag k.

    Certificate: the defect of the identity is multilinear, so it splits
    by the tag of each argument; each piece, in one argument's
    one-variable polynomial, is an operator of order at most 2, since
    a bracket has order at most 1 in each argument.  So window 2
    decides it."""

    def __init__(self, field: Field, arity: int):
        super().__init__(field, arity)
        self.ntags = arity - 1

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
        coeff = self.field.coerce(b - a if (self.ntags + 1 + k) % 2 else a - b)
        if not coeff:
            return {}
        return {(k, sum(e for _, e in keys) - 1): coeff}

    def window_keys(self, window: int):
        return [(t, e) for t in range(1, self.ntags + 1) for e in range(window + 1)]

    def certificate(self):
        return self._window_two(self)


class GeneralizedJacobianNAry(PolyNAryAlgebra):
    """Determinant bracket from an explicit list of derivation operators
    in commuting variables: entry (i,j) is D_i applied to f_j, with an
    optional bordered first row of the functions themselves."""

    def __init__(self, field: Field, nvars: int, ops, bordered: bool = False):
        self.ops = list(ops)
        super().__init__(field, len(self.ops) + (1 if bordered else 0))
        self.nvars = nvars
        self.bordered = bordered
        self.ring = SuperPolyRing(field, nvars, 0)
        for op in self.ops:
            for g in op.coeffs:
                if g[0] != "x":
                    raise ValueError("operators must involve x-derivatives only")

    def _apply(self, op: DiffOp, mono):
        out = op.apply(mono)
        if any(xis for _, xis in out.terms):
            raise ValueError("operator produced an anticommuting term")
        return out

    def raw_bracket(self, keys: tuple) -> dict:
        monos = [self.ring.monomial(alpha) for alpha in keys]
        mat = [[self._apply(op, f) for f in monos] for op in self.ops]
        if self.bordered:
            mat.insert(0, monos)
        return {alpha: c for (alpha, _), c in _det(mat, self.ring.zero()).terms.items()}

    def window_keys(self, window: int):
        return monomials_upto(self.nvars, window)


def algebra_S(n: int, field: Field = QQ) -> JacobianNAry:
    return JacobianNAry(field, n, quotient=True)


def algebra_W(n: int, field: Field = QQ) -> BorderedNAry:
    return BorderedNAry(field, n)


def algebra_SW(n: int, field: Field = QQ) -> TaggedNAry:
    if n < 3:
        raise ValueError("need n >= 3")
    return TaggedNAry(field, n)


def dzhumadildaev_closed(ops) -> tuple:
    """Is the field span of the given derivation operators closed under
    commutators?  Returns (bool, witness index pair or None).  This tests
    span closure only, not the n-ary Jacobi law of their bracket."""
    ops = list(ops)
    if not ops:
        return True, None
    span = span_of(ops[0].ring.field, (op.vectorize() for op in ops))
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
        try:
            rows.append([field.parse(tok) for tok in ln.replace(",", " ").split()])
        except LiteralError as exc:  # name the line
            raise ValueError("%s in %r" % (exc, ln)) from None
    if not rows:
        raise ValueError("empty form")
    return rows


def serialize_form(rows) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"
