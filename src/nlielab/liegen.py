"""Generation of graded subalgebras of W(V) and the structure checks
used to certify a pair (algebra element mu of degree n-1, space V) as
admissible: transitivity, mu commuting with the degree-zero part,
irreducibility of V under the degree-zero part, and truncation of the
generated algebra at degree n-1.

Also provides the inverse construction: recovering an n-ary bracket on
the reversed space from mu via iterated brackets in W(V), which must
reproduce the multilinear map mu came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from itertools import product

from .linalg import Span, envelope_dim, orbit_span
from .multilinear import conversion_sign, sort_with_sign_alternating
from .superspace import SuperSpace, SuperVector
from .universal import GradedSubalgebra, WElement, box, is_transitive, w_bracket

__all__ = [
    "GenerationTrace",
    "generate_subalgebra",
    "AdmissiblePairReport",
    "check_admissible",
    "check_irreducible",
    "TruncationReport",
    "check_truncation",
    "MuRelationsReport",
    "check_mu_relations",
    "induced_bracket_table",
    "tables_proportional",
]


@dataclass
class GenerationTrace:
    rounds: list = dfield(default_factory=list)  # dims snapshot after each round
    reached_fixpoint: bool = False

    @property
    def nrounds(self) -> int:
        return len(self.rounds)


def generate_subalgebra(space: SuperSpace, mu: WElement, cap: int):
    """Smallest graded subalgebra of W(V) containing V and mu, computed
    degree-capped at ``cap``.  Returns (subalgebra, trace).

    Brackets landing above the cap are discarded; choose the cap above
    the expected top degree so the fixpoint is meaningful.

    The closure runs in semi-naive rounds (Bancilhon and Ramakrishnan
    1986): a round brackets only the elements that grew the span in the
    previous round, each against every element kept so far, one bracket
    per unordered pair.  Every other pair was bracketed in an earlier
    round, so by bilinearity each round reaches the same span as
    bracketing every pair of a basis of the current span.
    """
    if mu.space != space:
        raise ValueError("mu must live over the given space")
    if cap < mu.degree:
        raise ValueError("cap %d cannot hold a seed of degree %d" % (cap, mu.degree))
    sub = GradedSubalgebra(space, cap)
    seeds = [WElement.from_vector(space.basis_vector(i)) for i in range(space.dim)]
    old: list = []
    new = [w for w in seeds + [mu] if sub.insert(w)]
    trace = GenerationTrace()
    trace.rounds.append(sub.dims())
    for _ in range(200):
        grown = []
        for i, u in enumerate(new):
            for v in old + new[i:]:
                d = u.degree + v.degree
                if d < -1 or d > cap:
                    continue
                h = w_bracket(u, v)
                if sub.insert(h):
                    grown.append(h)
        trace.rounds.append(sub.dims())
        if not grown:
            trace.reached_fixpoint = True
            break
        old += new
        new = grown
    return sub, trace


def check_irreducible(sub: GradedSubalgebra):
    """Decide irreducibility of V under the degree-zero component.

    Returns (status, detail) with status in {True, False, "not_decided"}.
    Two exact criteria: a proper invariant subspace found by spinning a
    basis vector proves reducibility; the associative envelope of the
    action filling all of End(V) proves irreducibility (over any field,
    since a proper invariant subspace would force the envelope into a
    proper subspace of matrices).
    """
    space = sub.space
    field = space.field
    dim = space.dim
    actions = []
    for u in sub.basis(0):
        mat = {}
        for j in range(dim):
            for i, c in u.payload.evaluate((j,)).coords.items():
                mat[(i, j)] = c
        actions.append(mat)
    if not actions:
        status = dim <= 1
        return status, "degree-zero part acts by zero"

    # spin each basis vector (a one-column matrix); a proper invariant
    # span is a witness
    for start in range(dim):
        orbit = orbit_span(field, actions, {(start, 0): field.one()})
        if orbit.dim < dim:
            return False, "basis vector %d spans a %d-dim invariant subspace" % (
                start,
                orbit.dim,
            )

    env = envelope_dim(field, actions, dim)
    if env == dim * dim:
        return True, "action envelope fills End(V)"
    return "not_decided", "no invariant subspace through basis vectors; envelope dim %d < %d" % (
        env,
        dim * dim,
    )


@dataclass
class AdmissiblePairReport:
    arity: int
    graded_dims: dict
    transitive: bool
    transitivity_witness: object
    mu_centralizes_degree_zero: bool
    centralizer_witness: object
    irreducible: object  # True / False / "not_decided"
    irreducibility_detail: str
    top_is_line: bool
    generation: GenerationTrace

    @property
    def admissible(self):
        if not self.generation.reached_fixpoint:
            return "not_decided"  # the generated algebra may be incomplete
        parts = [
            self.transitive,
            self.mu_centralizes_degree_zero,
            self.top_is_line,
        ]
        if not all(parts) or self.irreducible is False:
            return False
        if self.irreducible == "not_decided":
            return "not_decided"
        return True


def check_admissible(space: SuperSpace, mu: WElement, cap: int | None = None) -> AdmissiblePairReport:
    n = mu.degree + 1
    if n < 2:
        raise ValueError("mu must have degree at least 1")
    if cap is None:
        cap = n + 1
    sub, trace = generate_subalgebra(space, mu, cap)
    transitive, witness = is_transitive(sub, up_to=max(sub.degrees(), default=0))
    cent_ok = True
    cent_witness = None
    for u in sub.basis(0):
        h = w_bracket(mu, u)
        if not h.is_zero():
            cent_ok = False
            cent_witness = (u, h)
            break
    irr, irr_detail = check_irreducible(sub)
    top = sub.spans.get(n - 1)
    top_is_line = top is not None and top.dim == 1 and sub.contains(mu)
    return AdmissiblePairReport(
        arity=n,
        graded_dims=sub.dims(),
        transitive=transitive,
        transitivity_witness=witness,
        mu_centralizes_degree_zero=cent_ok,
        centralizer_witness=cent_witness,
        irreducible=irr,
        irreducibility_detail=irr_detail,
        top_is_line=top_is_line,
        generation=trace,
    )


@dataclass
class TruncationReport:
    ok: bool
    vanishing_above: bool
    top_is_line: bool
    components_from_top: bool  # L_j spanned by iterated brackets of V into mu
    opposite_pairs_commute: bool  # [L_j, L_{n-1-j}] = 0 for j >= 0
    positive_part_ideal: bool
    failures: list


def check_truncation(space: SuperSpace, mu: WElement, cap: int | None = None) -> TruncationReport:
    """Structure of the algebra generated by an admissible pair: nothing
    above degree n-1, a line at the top, every component swept out from
    mu by repeated bracketing with V, opposite components commuting,
    and everything below the top line forming an ideal."""
    n = mu.degree + 1
    if cap is None:
        cap = n + 1
    sub, _ = generate_subalgebra(space, mu, cap)
    failures = []

    vanishing = all(d <= n - 1 for d in sub.degrees())
    if not vanishing:
        failures.append("nonzero component in degree above %d" % (n - 1))

    top = sub.spans.get(n - 1)
    top_is_line = top is not None and top.dim == 1 and sub.contains(mu)
    if not top_is_line:
        failures.append("top component is not the line through mu")

    # sweep down: level k = span of [v_1,[...,[v_k, mu]...]]; the claim
    # covers degrees 0..n-1, so sweep k = 1..n-1
    sweep_ok = True
    levels = {n - 1: [mu]}
    for k in range(1, n):
        deg = n - 1 - k
        span = Span(space.field)
        elems = []
        for prev in levels[deg + 1]:
            for i in range(space.dim):
                h = w_bracket(WElement.from_vector(space.basis_vector(i)), prev)
                if h.is_zero():
                    continue
                if span.insert(h.vectorize()):
                    elems.append(h)
        levels[deg] = elems
        have = sub.spans.get(deg)
        want_dim = have.dim if have is not None else 0
        if span.dim != want_dim:
            sweep_ok = False
            failures.append(
                "degree %d: swept span has dim %d, component has dim %d"
                % (deg, span.dim, want_dim)
            )
            continue
        for h in elems:
            if not sub.contains(h):
                sweep_ok = False
                failures.append("degree %d: swept element escapes the component" % deg)
                break

    pairs_ok = True
    for j in range(0, n):
        k = n - 1 - j
        if k < 0:
            continue
        for u in sub.basis(j):
            for v in sub.basis(k):
                h = w_bracket(u, v)
                if not h.is_zero():
                    pairs_ok = False
                    failures.append(
                        "[degree %d, degree %d] bracket is nonzero" % (j, k)
                    )
                    break
            if not pairs_ok:
                break
        if not pairs_ok:
            break

    ideal_ok = True
    all_basis = []
    for d in sub.degrees():
        all_basis.extend(sub.basis(d))
    lower = [u for u in all_basis if u.degree <= n - 2]
    for u in all_basis:
        for v in lower:
            if u.degree + v.degree < -1:
                continue  # lands below the bottom, zero by definition
            h = w_bracket(u, v)
            if h.is_zero():
                continue
            if h.degree <= n - 2:
                if not sub.contains(h):
                    ideal_ok = False
                    failures.append("bracket escapes the generated algebra")
            else:
                ideal_ok = False
                failures.append(
                    "[degree %d, degree %d] lands in the top line" % (u.degree, v.degree)
                )
            if not ideal_ok:
                break
        if not ideal_ok:
            break

    ok = vanishing and top_is_line and sweep_ok and pairs_ok and ideal_ok
    return TruncationReport(
        ok=ok,
        vanishing_above=vanishing,
        top_is_line=top_is_line,
        components_from_top=sweep_ok,
        opposite_pairs_commute=pairs_ok,
        positive_part_ideal=ideal_ok,
        failures=failures,
    )


@dataclass
class MuRelationsReport:
    ok: bool
    checked: int
    self_bracket_zero: bool
    witness: object


def check_mu_relations(space: SuperSpace, mu: WElement) -> MuRelationsReport:
    """Exhaustive check of the relations mu satisfies against its own
    iterated descendants c = [v_1,[...,[v_k, mu]...]] over all basis
    tuples:

      [c, mu] = 0          for 0 <= k <= n-1 (k = 0 is [mu, mu] = 0),
      mu composed on c = 0 for 0 <= k <= n-2 (the seed itself and all
                           descendants of positive degree).

    The composition form is strictly stronger than the bracket form in
    the degrees where it applies; it cannot hold for k = n-1 since
    composing mu onto a nonzero degree-0 operator never vanishes when
    the operator acts nontrivially on the image of mu."""
    n = mu.degree + 1
    checked = 0
    witness = None
    self_ok = w_bracket(mu, mu).is_zero()
    ok = True
    for k in range(0, n):
        for tup in product(range(space.dim), repeat=k):
            c = mu
            for i in reversed(tup):
                c = w_bracket(WElement.from_vector(space.basis_vector(i)), c)
            checked += 1
            if c.is_zero():
                continue
            if not w_bracket(c, mu).is_zero():
                ok = False
                witness = ("bracket", tup)
                break
            if k <= n - 2 and not box(mu, c).is_zero():
                ok = False
                witness = ("composition", tup)
                break
        if not ok:
            break
    return MuRelationsReport(
        ok=ok and self_ok,
        checked=checked,
        self_bracket_zero=self_ok,
        witness=witness,
    )


def induced_bracket_table(space: SuperSpace, mu: WElement) -> dict:
    """Recover an n-bracket on the reversed space from mu degree-by-degree:
    plug basis vectors into mu via iterated brackets in W(V) and convert
    the resulting vector with the parity-bookkeeping sign.

    Returns a table over canonically sorted index tuples of the reversed
    space, directly comparable with a bracket table built the other way.
    """
    n = mu.degree + 1
    rev = space.reversed()
    table = {}
    for combo in product(range(space.dim), repeat=n):
        key, sgn = sort_with_sign_alternating(combo, rev.parities)
        if sgn == 0 or key != combo:
            continue
        h = mu
        for i in combo:
            h = w_bracket(h, WElement.from_vector(space.basis_vector(i)))
        if h.degree != -1:
            raise ValueError("iterated bracket did not land in degree -1")
        out = h.payload
        ps = [space.parities[i] for i in combo]
        csign = conversion_sign(ps)
        if csign < 0:
            out = -out
        if not out.is_zero():
            table[key] = out
    return table


def tables_proportional(t1: dict, t2: dict, field):
    """Compare two bracket tables up to one global scalar.

    Values may be SuperVector or coordinate dicts.  Returns (True, c)
    with t1 = c * t2, or (False, witness_key).
    """

    def coords(v):
        return v.coords if isinstance(v, SuperVector) else v

    keys = sorted(set(t1) | set(t2))
    scalar = None
    for key in keys:
        c1 = coords(t1.get(key, {})) if t1.get(key) is not None else {}
        c2 = coords(t2.get(key, {})) if t2.get(key) is not None else {}
        idxs = sorted(set(c1) | set(c2))
        for i in idxs:
            a = c1.get(i, field.zero())
            b = c2.get(i, field.zero())
            if not a and not b:
                continue
            if not b or not a:
                return False, key
            r = field.div(a, b)
            if scalar is None:
                scalar = r
            elif r != scalar:
                return False, key
    if scalar is None:
        scalar = field.one()
    return True, scalar
