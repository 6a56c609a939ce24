"""Derivation spaces of finite-dimensional n-ary superalgebras.

The Leibniz rule is linear in the endomorphism, so the space of
derivations of a fixed parity is the exact kernel of one sparse system
assembled over canonical source tuples.  Inner maps x -> [a_1..a_{n-1}, x]
are collected into parity-tagged spans for the Der = Inder comparison and
the ideal test [Der, Inder] <= Inder.
"""

from dataclasses import dataclass

from .fields import Field
from .linalg import Span, kernel, mat_mul, vec_add_scaled
from .multilinear import canonical_tuples
from .nlie import (FiniteNAryAlgebra, ad_table, check_derivation, derivation_defect,
                   inner_derivation)
from .superspace import EVEN, ODD


def endo_entries(space, eparity: int):
    """Matrix positions (i, j) legal for a parity-eparity endomorphism:
    basis j maps into the parity block p(j) + eparity."""
    out = []
    for j in range(space.dim):
        pj = space.parities[j]
        for i in range(space.dim):
            if space.parities[i] == (pj + eparity) % 2:
                out.append((i, j))
    return out


def matrix_dmap(alg, mat: dict):
    """dmap function for a matrix stored as {(i, j): c}."""
    space = alg.space
    cols = {}
    for (i, j), c in mat.items():
        cols.setdefault(j, {})[i] = c

    def dmap(k):
        return space.vector(cols.get(k, {}))

    return dmap


def matrix_of_dmap(alg, dmap) -> dict:
    mat = {}
    for j in range(alg.space.dim):
        for i, c in dmap(j).items():
            mat[(i, j)] = c
    return mat


def mat_commutator(field: Field, a: dict, pa: int, b: dict, pb: int) -> dict:
    """Super commutator a b - (-1)^{pa pb} b a of two matrices."""
    out = mat_mul(a, b)
    sign = -field.one() if (pa and pb) else field.one()
    vec_add_scaled(out, mat_mul(b, a), -sign)
    return out


@dataclass
class DerivationSpace:
    algebra: FiniteNAryAlgebra
    basis: list                 # (parity, matrix dict), even block first
    inner: dict                 # parity -> Span of inner matrices

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def inner_dim(self) -> int:
        return sum(sp.dim for sp in self.inner.values())

    def inner_contains(self, parity: int, mat: dict) -> bool:
        if not mat:
            return True
        sp = self.inner.get(parity)
        return sp is not None and sp.contains(mat)


def derivation_space(alg: FiniteNAryAlgebra) -> DerivationSpace:
    """Exact solution space of the Leibniz system over all canonical
    source tuples, split by endomorphism parity."""
    space = alg.space
    field = alg.field
    tuples = list(canonical_tuples(range(space.dim), alg.arity, space.parities))
    ads = ad_table(alg)
    basis = []
    for eparity in (EVEN, ODD):
        entries = endo_entries(space, eparity)
        if not entries:
            continue
        columns = []
        for i, j in entries:
            dmap = matrix_dmap(alg, {(i, j): field.one()})
            col = {}
            for t_idx, keys in enumerate(tuples):
                for out_idx, c in derivation_defect(alg, dmap, eparity, keys, ads).items():
                    col[(t_idx, out_idx)] = c
            columns.append(col)
        for vec in kernel(field, columns):
            basis.append((eparity, {entries[c]: v for c, v in vec.items()}))
    return DerivationSpace(alg, basis, inner_spans(alg))


def inner_spans(alg: FiniteNAryAlgebra) -> dict:
    """Parity -> span of matrices of x -> [a_1..a_{n-1}, x] over canonical
    basis source tuples."""
    spans: dict = {}
    for srcs in canonical_tuples(range(alg.space.dim), alg.arity - 1, alg.space.parities):
        par, dmap = inner_derivation(alg, srcs)
        mat = matrix_of_dmap(alg, dmap)
        if mat:
            spans.setdefault(par, Span(alg.field)).insert(mat)
    return spans


@dataclass
class DerReport:
    dim_der: int
    dim_inder: int
    der_equals_inder: bool
    ideal_ok: bool
    all_inner_are_derivations: bool
    witness: object = None


def analyze_derivations(alg: FiniteNAryAlgebra) -> DerReport:
    ds = derivation_space(alg)
    equals = ds.dim == ds.inner_dim
    if equals:
        full = Span(alg.field)
        for spans in ds.inner.values():
            for row in spans:
                full.insert(row)
        equals = all(full.contains(mat) for _, mat in ds.basis if mat)
    ideal_ok = True
    witness = None
    for dp, dmat in ds.basis:
        for ip, isp in ds.inner.items():
            for imat in isp.basis():
                comm = mat_commutator(alg.field, dmat, dp, imat, ip)
                if not ds.inner_contains((dp + ip) % 2, comm):
                    ideal_ok = False
                    witness = ("ideal", dmat, imat)
                    break
            if not ideal_ok:
                break
        if not ideal_ok:
            break
    inner_ok = True
    for srcs in canonical_tuples(range(alg.space.dim), alg.arity - 1, alg.space.parities):
        par, dmap = inner_derivation(alg, srcs)
        rep = check_derivation(alg, dmap, par)
        if not rep.ok:
            inner_ok = False
            witness = witness or ("inner", srcs, rep.witness)
            break
    return DerReport(ds.dim, ds.inner_dim, equals, ideal_ok, inner_ok,
                     witness)


def form_skew_defect(form, mat: dict, field: Field, dim: int) -> dict:
    """b(D u, v) + b(u, D v) on basis pairs; empty exactly when the
    endomorphism is skew for the symmetric form b (dense rows)."""
    out = {}
    for u in range(dim):
        for v in range(dim):
            acc = field.zero()
            for k in range(dim):
                c = mat.get((k, v))
                if c:
                    acc = acc + form[u][k] * c
                c = mat.get((k, u))
                if c:
                    acc = acc + form[v][k] * c
            if acc:
                out[(u, v)] = acc
    return out
