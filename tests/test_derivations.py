"""Derivation algebras of the finite catalog brackets."""

import pytest

from nlielab.catalog import algebra_O
from nlielab.derivations import (
    analyze_derivations,
    derivation_space,
    form_skew_defect,
    mat_commutator,
    matrix_dmap,
    matrix_of_dmap,
)
from nlielab.fields import GF, QQ
from nlielab.nlie import check_derivation


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
        rep = check_derivation(alg, matrix_dmap(alg, mat), parity)
        assert rep.ok, rep.witness
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
    back = matrix_of_dmap(alg, matrix_dmap(alg, mat))
    assert back == mat
