"""Derivation algebras of the finite catalog brackets."""

import pytest

from nlielab.catalog import algebra_O
from nlielab.derivations import (
    analyze_derivations,
    derivation_space,
    form_skew_defect,
    mat_commutator,
    matrix_dmap,
)
from nlielab.fields import GF, QQ
from nlielab.linalg import matrix_of
from nlielab.multilinear import canonical_tuples
from nlielab.nlie import derivation_defect, parse_table, serialize_table


def first_failure(alg, dmap, parity):
    """(tuple, shown defect) at the first canonical tuple where ``dmap``
    breaks the derivation law, or None."""
    for tup in canonical_tuples(range(alg.space.dim), alg.arity, alg.space.parities):
        defect = derivation_defect(alg, dmap, parity, tup)
        if defect:
            return tup, alg.show(defect)
    return None


def test_quaternary_derivations_are_all_inner():
    rep = analyze_derivations(algebra_O(3))
    assert rep.dim_der == 6
    assert rep.dim_inder == 6
    assert rep.der_equals_inder
    assert rep.ideal_ok
    assert rep.all_inner_are_derivations
    assert rep.witness is None


def test_five_dim_catalog_derivations():
    rep = analyze_derivations(algebra_O(4))
    assert rep.dim_der == 10
    assert rep.dim_inder == 10
    assert rep.der_equals_inder and rep.ideal_ok


def test_derivations_over_a_prime_field():
    rep = analyze_derivations(algebra_O(3, field=GF(7)))
    assert rep.dim_der == 6 and rep.der_equals_inder


def test_every_solved_derivation_satisfies_leibniz():
    alg = algebra_O(3)
    ds = derivation_space(alg)
    assert ds.dim == 6 and ds.inner_dim == 6
    for parity, mat in ds.basis:
        assert first_failure(alg, matrix_dmap(alg, mat), parity) is None
        assert ds.inner_contains(parity, mat)


def test_derivations_are_skew_for_the_form():
    alg = algebra_O(3)
    for parity, mat in derivation_space(alg).basis:
        assert form_skew_defect(alg.form, mat, QQ, alg.space.dim) == {}
    not_skew = {(0, 0): QQ.one()}
    assert form_skew_defect(alg.form, not_skew, QQ, alg.space.dim) != {}


def test_commutator_of_derivations_stays_inner():
    alg = algebra_O(3)
    ds = derivation_space(alg)
    mats = ds.basis
    for pa, a in mats:
        for pb, b in mats:
            c = mat_commutator(QQ, a, pa, b, pb)
            assert ds.inner_contains((pa + pb) % 2, c)


def test_matrix_roundtrip():
    alg = algebra_O(3)
    mat = {(0, 1): QQ.scalar(2), (3, 2): QQ.scalar(-1)}
    back = matrix_of(map(matrix_dmap(alg, mat), range(alg.space.dim)))
    assert back == mat


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("line, term", [(1, " + 1*e1"), (-1, " + 1*e2"), (2, " + 2*e3")])
def test_inner_witness_is_the_first_failing_tuple(field, n, line, term):
    # only independent inner maps are checked, yet the witness is the first
    # canonical tuple whose inner map fails, as in a scan of every tuple
    lines = serialize_table(algebra_O(n, field)).splitlines()
    lines[line] += term
    alg = parse_table("\n".join(lines))
    want = None
    for srcs in canonical_tuples(range(n + 1), n - 1, [0] * (n + 1)):
        # the even ad_a of an even bracket on an even space
        failure = first_failure(alg, lambda k: alg.bracket_keys(srcs + (k,)), 0)
        if failure:
            want = ("inner", srcs, failure)
            break
    rep = analyze_derivations(alg)
    assert rep.ideal_ok and rep.all_inner_are_derivations == (want is None)
    assert rep.witness == want
