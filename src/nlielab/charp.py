"""Characteristic-p laboratory: the one-dimensional odd n-algebra with
[a,...,a] = a over F_p, n = s p + 1.

Two measurements: the exact super-FJ residue of the unique basis
identity instance, and the degree profile of the subalgebra of
one-variable polynomial vector fields generated by d/dx and x^n d/dx,
which realizes the graded closure of the seed.  A characteristic-zero
run of the same generation is included for contrast.
"""

from dataclasses import dataclass

from .fields import GF, QQ, Field
from .nlie import FiniteNAryAlgebra, filippov_defect
from .superspace import SuperSpace

ODD = 1


@dataclass
class CharPSeed:
    p: int
    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be a positive integer")
        self.field = GF(self.p)  # validates primality
        self.n = self.s * self.p + 1

    def algebra(self) -> FiniteNAryAlgebra:
        n = self.n
        space = SuperSpace(self.field, ("a",), (ODD,))
        # value parity p(a) = alpha + n p(a) forces alpha = n + 1 mod 2
        alpha = (n + 1) % 2
        table = {(0,) * n: {0: self.field.one()}}
        return FiniteNAryAlgebra(space, n, alpha, table)


@dataclass
class FJResidueReport:
    p: int
    n: int
    residue: int            # LHS - RHS coefficient on a, reduced mod p
    ok: bool


def charp_fj_check(seed: CharPSeed) -> FJResidueReport:
    """The residue of the one basis instance.  ad_a has parity
    alpha + (n - 1) = (n + 1) + (n - 1), even at every arity, so the
    identity has no signs: LHS a, RHS n a, residue (1 - n) a = -s p a,
    which is 0 in F_p."""
    alg = seed.algebra()
    n = seed.n
    residue = filippov_defect(alg, (0,) * (n - 1), (0,) * n).get(0, 0)
    return FJResidueReport(seed.p, n, residue, residue == 0)


@dataclass
class GenerationProfile:
    field_name: str
    n: int
    cap: int
    exponents: tuple        # a with x^a d/dx in the closure, degree <= cap
    degrees: tuple          # a - 1 for those a
    violation: object       # None or (a, b, a + b - 1) first above bound
    rounds: int

    @property
    def max_degree(self):
        return max(self.degrees) if self.degrees else None

    @property
    def bound_holds(self) -> bool:
        return all(d <= self.n - 1 for d in self.degrees)


def generation_profile(field: Field, n: int, cap: int) -> GenerationProfile:
    """Closure of {d/dx, x^n d/dx} under [x^a d, x^b d] = (b-a) x^{a+b-1} d.

    Products of exponents >= 1 never decrease the maximum, and descents
    happen one step at a time through [d, x^c d] = c x^{c-1} d, dying as
    soon as p | c; over F_p a chain of p consecutive descents always hits
    a dead coefficient, so exploring p exponents past the cap is enough
    to see everything that can fall back inside it.
    """
    headroom = field.p if field.p else 2
    limit = cap + 1 + headroom
    exps = {0, n}
    rounds = 0
    violation = None
    while True:
        rounds += 1
        new = set()
        cur = sorted(exps)
        for i, a in enumerate(cur):
            for b in cur[i + 1:]:
                e = a + b - 1
                if e > limit or e in exps or e in new:
                    continue
                if not field.coerce(b - a):
                    continue
                new.add(e)
                if violation is None and e - 1 > n - 1 and e - 1 <= cap:
                    violation = (a, b, e)
        if not new:
            break
        exps |= new
        if rounds > 4 * limit:
            raise RuntimeError("closure failed to stabilize")
    inside = tuple(a for a in sorted(exps) if a - 1 <= cap)
    degrees = tuple(a - 1 for a in inside)
    return GenerationProfile(field.name, n, cap, inside, degrees,
                             violation, rounds)


def charp_generation(seed: CharPSeed, cap: int) -> GenerationProfile:
    return generation_profile(seed.field, seed.n, cap)


def q_control(n: int, cap: int) -> GenerationProfile:
    """The same generation run over the rationals."""
    return generation_profile(QQ, n, cap)
