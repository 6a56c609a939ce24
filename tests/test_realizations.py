"""Polynomial models: bracket axioms, constraint kernels, field maps,
the twisted action on functions, pairings and splittings."""

import pytest
from hypothesis import given, settings, strategies as st

from nlielab.fields import GF, QQ
from nlielab.linalg import Span
from nlielab.polysuper import DiffOp, SuperPolyRing
from nlielab.realizations import (
    ButtinRealization,
    ContactRealization,
    GradingSpec,
    PoissonRealization,
    SplitReport,
    VectorFieldRealization,
    check_split,
    graded_dims,
    parse_handle,
    pi_act,
    pi_defect,
    split_cases,
    verify_pair,
)


# The carrier brackets as first written, summing out of place term by
# term: the oracles for the in-place accumulation in the library.

def poisson_bracket_ref(real, f, g):
    out = real.ring.zero()
    for fh in f.homogeneous_parts():
        if fh.is_zero():
            continue
        sgn = 1 if fh.parity() else -1
        acc = real.ring.zero()
        for (i, j) in sorted(real.b):
            t = fh.dxi(i) * g.dxi(j)
            if not t.is_zero():
                acc = acc + t.scale(real.b[(i, j)])
        part = acc if sgn > 0 else -acc
        for i in range(1, real.npairs + 1):
            part = part + fh.dx(i) * g.dx(real.npairs + i)
            part = part - fh.dx(real.npairs + i) * g.dx(i)
        out = out + part
    return real.project(out)


def buttin_bracket_ref(real, f, g):
    out = real.ring.zero()
    for fh in f.homogeneous_parts():
        if fh.is_zero():
            continue
        eps = 1 if real.lie_parity(fh) == 0 else -1
        for i in range(1, real.nvars + 1):
            out = out + fh.dx(i) * g.dxi(i)
            t = fh.dxi(i) * g.dx(i)
            out = out + (-t if eps > 0 else t)
    return real.project(out)


def contact_bracket_ref(real, f, g):
    def two_minus_e(h):
        sel = range(1, real.m + 1)
        return h.scale(2) - h.euler(xset=sel, xiset=sel)

    N = real.cidx
    out = real.ring.zero()
    for fh in f.homogeneous_parts():
        if fh.is_zero():
            continue
        eps = 1 if real.lie_parity(fh) == 0 else -1
        out = out + two_minus_e(fh) * g.dxi(N)
        t = fh.dxi(N) * two_minus_e(g)
        out = out + (-t if eps > 0 else t)
        for i in range(1, real.m + 1):
            out = out - fh.dx(i) * g.dxi(i)
            t = fh.dxi(i) * g.dx(i)
            out = out + (t if eps > 0 else -t)
    return out


def bracket_cases():
    third = QQ.scalar(1, 3)
    return [
        (PoissonRealization(QQ, 0, 4), poisson_bracket_ref),
        (PoissonRealization(QQ, 0, 4, quotient=True), poisson_bracket_ref),
        (PoissonRealization(QQ, 2, 2, b={(1, 2): 3}), poisson_bracket_ref),
        (ButtinRealization(QQ, 3), buttin_bracket_ref),
        (ButtinRealization(QQ, 3, constraint="delta", quotient=True), buttin_bracket_ref),
        (ButtinRealization(GF(5), 2), buttin_bracket_ref),
        (ContactRealization(QQ, 3), contact_bracket_ref),
        (ContactRealization(QQ, 3, beta=1, constraint="div"), contact_bracket_ref),
        (ContactRealization(QQ, 3, beta=third, constraint="div"), contact_bracket_ref),
        (ContactRealization(GF(5), 2), contact_bracket_ref),
    ]


def window_combinations(real, xwindow=2):
    """Random combinations of up to three window elements, so mixed
    parities reach the brackets too."""
    window = real.window_elements(xwindow)
    one = st.tuples(st.sampled_from(window), st.integers(-3, 3))
    return st.lists(one, min_size=1, max_size=3).map(
        lambda ts: sum((e.scale(c) for e, c in ts), real.zero()))


BRACKET_CASES = bracket_cases()


@pytest.mark.parametrize("real,ref", BRACKET_CASES,
                         ids=["%s/%s" % (r.name, r.field.name) for r, _ in BRACKET_CASES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bracket_matches_the_out_of_place_sum(real, ref, data):
    elems = window_combinations(real)
    f, g = data.draw(elems), data.draw(elems)
    want = ref(real, f, g).terms
    left, right = real.prepare_left(f), real.prepare_right(g)
    # prepared, mixed and plain operands all give the oracle's bracket; the
    # loop reuses the pieces, so a bracket must leave them intact
    for a, b in ((f, g), (left, right), (left, g), (f, right)):
        assert real.bracket(a, b).terms == want
    assert all(p.terms for p, _ in left) and all(r.terms for r in right.values())


@pytest.mark.parametrize("cls", [PoissonRealization, ButtinRealization,
                                 ContactRealization, VectorFieldRealization])
def test_each_carrier_owns_its_bracket(cls):
    # perfbench's tracer wraps each class's own bracket, not an inherited one
    assert "bracket" in vars(cls)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_two_minus_euler_skips_the_contact_variable(data):
    # the bracket alone cannot see this: counting xi_N in E changes both
    # of its xi_N terms by the same amount, which cancels
    real = ContactRealization(QQ, 3)
    f = data.draw(window_combinations(real))
    sel = range(1, 4)
    assert real._two_minus_e(f) == f.scale(2) - f.euler(xset=sel, xiset=sel)


def realization_zoo():
    return [
        PoissonRealization(QQ, 0, 4, quotient=True),
        ButtinRealization(QQ, 3, constraint="delta", quotient=True),
        ContactRealization(QQ, 2, beta=1, constraint="div"),
        VectorFieldRealization(QQ, 1, 2, constraint="div"),
    ]


def samples(real, k=5):
    out = list(real.window_elements(1))[:k]
    assert len(out) >= 3
    return out


@pytest.mark.parametrize("real", realization_zoo(), ids=lambda r: r.name)
def test_bracket_is_superanticommutative(real):
    elems = samples(real)
    for f in elems:
        for g in elems:
            sign = -1 if not (real.lie_parity(f) and real.lie_parity(g)) else 1
            assert real.bracket(f, g) == real.bracket(g, f).scale(sign)


@pytest.mark.parametrize("real", realization_zoo(), ids=lambda r: r.name)
def test_bracket_satisfies_graded_jacobi(real):
    elems = samples(real, 4)
    for f in elems:
        for g in elems:
            eps = -1 if (real.lie_parity(f) and real.lie_parity(g)) else 1
            for h in elems:
                lhs = real.bracket(f, real.bracket(g, h))
                rhs = real.bracket(real.bracket(f, g), h) + real.bracket(
                    g, real.bracket(f, h)
                ).scale(eps)
                assert lhs == rhs


@pytest.mark.parametrize("real", realization_zoo(), ids=lambda r: r.name)
def test_constrained_windows_close_under_the_bracket(real):
    elems = samples(real)
    for f in elems:
        assert real.contains(f)
        for g in elems:
            assert real.contains(real.bracket(f, g))


@pytest.mark.parametrize("real", realization_zoo(), ids=lambda r: r.name)
def test_field_map_is_a_lie_homomorphism(real):
    elems = samples(real, 4)
    for f in elems:
        for g in elems:
            lhs = real.field_of(real.bracket(f, g))
            rhs = real.field_of(f).bracket(real.field_of(g))
            assert lhs == rhs


def test_constraint_kernels_reject_outsiders():
    sho = ButtinRealization(QQ, 3, constraint="delta")
    R = sho.ring
    assert not sho.contains(R.x(1) * R.xi(1))
    assert sho.contains(R.x(1) * R.xi(2))

    svf = VectorFieldRealization(QQ, 1, 2, constraint="div")
    assert not svf.contains(DiffOp.ddx(svf.ring, 1, coeff=svf.ring.x(1)))
    assert svf.contains(DiffOp.ddxi(svf.ring, 1, coeff=svf.ring.xi(2)))

    sko = ContactRealization(QQ, 2, beta=1, constraint="div")
    assert not sko.contains(sko.ring.xi(3))
    assert sko.contains(sko.ring.xi(1))


def test_constrained_windows_have_integer_coefficients():
    # over QQ each kernel vector is scaled by the lcm of its denominators
    for real in realization_zoo():
        for e in real.window_elements(2):
            polys = list(e.coeffs.values()) if isinstance(e, DiffOp) else [e]
            assert all(type(c) is int for f in polys for c in f.terms.values()), real.name


def test_unconstrained_field_maps_kill_exactly_the_constants():
    P = PoissonRealization(QQ, 0, 4)
    assert P.field_of(P.ring.one()).is_zero()
    assert not P.field_of(P.ring.xi(1)).is_zero()
    PO = ButtinRealization(QQ, 3)
    assert PO.field_of(PO.ring.one()).is_zero()
    # the contact model embeds constants as honest operators instead
    KO = ContactRealization(QQ, 2)
    assert not KO.field_of(KO.ring.one()).is_zero()


def test_poisson_form_is_pluggable():
    ident = PoissonRealization(QQ, 0, 3)
    anti = PoissonRealization(QQ, 0, 3, b={(1, 3): 1, (2, 2): 1, (3, 1): 1})
    f, g = ident.ring.xi(1), ident.ring.xi(2)
    assert ident.bracket(f, f) == ident.ring.one()
    assert ident.bracket(f, g).is_zero()
    assert anti.bracket(f, f).is_zero()
    # antidiagonal pairing couples xi_1 with xi_3
    assert anti.bracket(f, anti.ring.xi(3)) == anti.ring.one()


def test_grading_spec_parse_and_weights():
    spec = GradingSpec.parse("2,1|1,1")
    assert spec.xweights == (2, 1) and spec.xiweights == (1, 1)
    assert str(spec) == "2,1|1,1"
    assert spec.weight_key(((1, 0), (1,))) == 3
    assert GradingSpec.parse("|1,1,1").xweights == ()
    with pytest.raises(ValueError):
        GradingSpec.parse("1,2")


def test_mixed_weight_polynomials_have_no_weight():
    P = PoissonRealization(QQ, 0, 4)
    g = P.grading
    R = P.ring
    assert g.weight(R.xi(1)) == 1
    assert g.weight(R.xi(1) * R.xi(2) + R.xi(3) * R.xi(4)) == 2
    assert g.weight(R.xi(1) + R.xi(1) * R.xi(2)) is None


def test_parse_handle_constructs_the_advertised_models():
    assert parse_handle("W(1,2)").name == "W(1,2)"
    assert parse_handle("S'(1,2)").name == "S'(1,2)"
    assert parse_handle("P(0,4)").name == "P(0,4)"
    assert parse_handle("H'(0,4)").name == "H'(0,4)"
    assert parse_handle("PO(3,3)").name == "PO(3,3)"
    assert parse_handle("SHO'(3,3)").name == "SHO'(3,3)"
    assert parse_handle("KO(2,3)").name == "KO(2,3)"
    sko = parse_handle("SKO'(2,3)", beta=QQ.scalar(1, 3))
    assert "SKO'" in sko.name
    for bad in ("Q(1,1)", "PO(2,3)", "KO(2,4)", "W(1)"):
        with pytest.raises(ValueError):
            parse_handle(bad)


WINDOW_TWO_DIMS = {
    "W(1,2)": {-1: 3, 0: 9, 1: 12, 2: 9, 3: 3},
    "S'(1,2)": {-1: 3, 0: 8, 1: 9, 2: 5},
    "P(0,4)": {-2: 1, -1: 4, 0: 6, 1: 4, 2: 1},
    "H'(0,4)": {-1: 4, 0: 6, 1: 4, 2: 1},
    "P(2,2)": {-2: 1, -1: 4, 0: 8, 1: 8, 2: 3},
    "PO(2,2)": {-1: 6, 0: 12, 1: 6},
    "SHO'(3,3)": {-1: 9, 0: 26, 1: 19, 2: 1},
    "KO(2,3)": {-1: 6, 0: 18, 1: 18, 2: 6},
    "SKO'(2,3;1)": {-1: 6, 0: 15, 1: 6, 2: 1},
    "SKO'(3,4;1/3)": {-1: 10, 0: 30, 1: 30, 2: 10},
}


@pytest.mark.parametrize("handle", sorted(WINDOW_TWO_DIMS))
def test_graded_bases_partition_the_window(handle):
    real = parse_handle(handle)
    for xwindow in range(3):
        window = real.window_elements(xwindow)
        dims = graded_dims(real, range(-3, 7), xwindow)
        assert sum(dims.values()) == len(window)
        wspan = Span(QQ)
        for e in window:
            wspan.insert(real.vectorize(e))
            assert real.element(real.vectorize(e)) == e
        for d in range(-3, 7):
            for e in real.basis(d, xwindow):
                assert real.contains(e) and wspan.contains(real.vectorize(e))
    assert {d: k for d, k in dims.items() if k} == WINDOW_TWO_DIMS[handle]


def test_incompatible_gradings_are_rejected():
    bad = [
        lambda: PoissonRealization(QQ, 0, 4, grading=GradingSpec((), (1, 1, 1, 2))),
        lambda: PoissonRealization(QQ, 2, 2, grading=GradingSpec((1, 2), (1, 1))),
        lambda: ButtinRealization(QQ, 2, grading=GradingSpec((0, 1), (1, 1))),
        lambda: ContactRealization(QQ, 2, grading=GradingSpec((0, 0), (1, 1, 2))),
        lambda: ButtinRealization(QQ, 0),
    ]
    for build in bad:
        with pytest.raises(ValueError, match="not compatible"):
            build()
    # the shift is the one weight sum the bracket pairs
    assert PoissonRealization(QQ, 0, 4).shift == 2
    assert PoissonRealization(QQ, 0, 0).shift == 0
    assert PoissonRealization(QQ, 2, 2, grading=GradingSpec((1, 3), (2, 2))).shift == 4
    assert ButtinRealization(QQ, 2, grading=GradingSpec((1, 1), (1, 1))).shift == 2
    assert ContactRealization(QQ, 2).shift == 1
    assert VectorFieldRealization(QQ, 1, 2).shift == 0


def test_graded_dims_of_the_top_quotient_model():
    real = PoissonRealization(QQ, 0, 4, quotient=True)
    dims = graded_dims(real, range(-1, 3), xwindow=0)
    assert dims == {-1: 4, 0: 6, 1: 4, 2: 1}


def test_twisted_action_is_a_representation():
    svf = VectorFieldRealization(QQ, 1, 2)
    R = svf.ring
    lam = QQ.scalar(-1, 2)
    ops = [
        DiffOp.ddx(R, 1, coeff=R.x(1)),
        DiffOp.ddxi(R, 1, coeff=R.x(1) * R.xi(2)),
        DiffOp.ddx(R, 1, coeff=R.xi(1) * R.xi(2)),
        DiffOp.ddxi(R, 2),
    ]
    fs = [R.one(), R.x(1), R.xi(1), R.x(1) * R.xi(2)]
    for X in ops:
        for Y in ops:
            for f in fs:
                assert pi_defect(X, Y, f, lam).is_zero()


def test_twisted_action_pins_down_the_divergence_signs():
    R = SuperPolyRing(QQ, 1, 1)
    X = DiffOp.ddx(R, 1, coeff=R.xi(1))
    Y = DiffOp.ddxi(R, 1, coeff=R.x(1) * R.x(1))
    f = R.x(1)
    lam = QQ.scalar(2, 3)

    def div_xonly(Z):
        out = Z.ring.zero()
        for g, p in Z.coeffs.items():
            if g[0] == "x":
                out = out + p.dx(g[1])
        return out

    def div_flip(Z):
        out = Z.ring.zero()
        for g, p in Z.coeffs.items():
            if g[0] == "x":
                out = out + p.dx(g[1])
            else:
                pe, po = p.homogeneous_parts()
                out = out - pe.dxi(g[1]) + po.dxi(g[1])
        return out

    assert pi_defect(X, Y, f, lam).is_zero()
    x2 = R.x(1) * R.x(1)
    assert pi_defect(X, Y, f, lam, div_fn=div_xonly) == x2.scale(QQ.scalar(4, 3))
    assert pi_defect(X, Y, f, lam, div_fn=div_flip) == x2.scale(QQ.scalar(8, 3))


def test_defect_requires_homogeneous_operators():
    R = SuperPolyRing(QQ, 1, 1)
    mixed = DiffOp.ddx(R, 1) + DiffOp.ddxi(R, 1)
    even = DiffOp.ddx(R, 1)
    # the action itself splits mixed operators into parts
    assert pi_act(mixed, R.x(1), QQ.one()) == R.one()
    with pytest.raises(ValueError):
        pi_defect(mixed, even, R.x(1), QQ.one())


@pytest.mark.parametrize(
    "which,scalar,tuples,l0",
    [
        ("i", QQ.scalar(-1), 4, "6 degree-0 elements"),
        ("ii", QQ.scalar(-1), 50, "26 degree-0 elements"),
        ("iii", QQ.scalar(-2), 17, "15 degree-0 elements"),
        ("iv", QQ.scalar(1), 18, "12 degree-0 elements"),
    ],
    # explicit ids keep the test names independent of the scalars' type
    ids=["i-scalar0-4-6 degree-0 elements", "ii-scalar1-50-26 degree-0 elements",
         "iii-scalar2-17-15 degree-0 elements", "iv-scalar3-18-12 degree-0 elements"],
)
def test_pairings_reproduce_the_catalog_brackets(which, scalar, tuples, l0):
    rep = verify_pair(which, 3, xwindow=2)
    assert rep.ok
    assert rep.scalar == scalar
    by_name = {c.name: c for c in rep.checks}
    assert by_name["top_component_is_line"].ok is True
    assert by_name["top_centralizes_degree_zero"].detail == l0
    match = by_name["induced_bracket_matches_catalog"]
    assert match.ok is True
    assert ("over %d tuples" % tuples) in match.detail
    if which == "i":
        assert by_name["depth_module_irreducible"].ok is True
        assert "16 of 16" in by_name["depth_module_irreducible"].detail
    else:
        assert by_name["depth_module_irreducible"].ok is None


def check_split_ref(real, complement, xwindow, gen_slack=2, label="",
                    asserted=True, ideal_xdeg=1):
    """``check_split`` as first written: every bracket from plain
    elements, the ideal sample filtered pair by pair; the oracle for the
    prepared pieces in the library."""
    field = real.field
    wspan = Span(field)
    for e in real.window_elements(xwindow):
        wspan.insert(real.vectorize(e))
    slack = real.window_elements(xwindow + gen_slack)
    dspan_all, dwspan = Span(field), Span(field)
    for i in range(len(slack)):
        for j in range(i, len(slack)):
            r = real.bracket(slack[i], slack[j])
            v = real.vectorize(r)
            if not v:
                continue
            dspan_all.insert(v)
            if real.xdeg(r) <= xwindow:
                dwspan.insert(v)
    cvec = real.vectorize(complement)
    in_carrier = bool(wspan.contains(cvec)) and real.contains(complement)
    in_derived = bool(dspan_all.contains(cvec))
    checked = failures = 0
    dw_elems = [real.element(row) for row in dwspan.basis()]
    for w in real.window_elements(ideal_xdeg):
        for d in dw_elems:
            if real.xdeg(w) + real.xdeg(d) > xwindow + gen_slack:
                continue
            v = real.vectorize(real.bracket(w, d))
            checked += 1
            if v and not dspan_all.contains(v):
                failures += 1
    return SplitReport(label or real.name, xwindow, wspan.dim, dwspan.dim, in_carrier,
                       in_derived, dwspan.dim == wspan.dim - 1, checked, failures, asserted)


@pytest.mark.parametrize("xwindow", [0, 1])
def test_split_reports_match_the_all_pairs_reference(xwindow):
    for label, real, comp, asserted in split_cases(xwindow):
        got = check_split(real, comp, xwindow, label=label, asserted=asserted)
        assert got == check_split_ref(real, comp, xwindow, label=label, asserted=asserted)


def test_pairing_report_carries_the_names():
    rep = verify_pair("i", 3, xwindow=2)
    assert rep.which == "i" and rep.arity == 3
    assert rep.realization == "H'(0,4)"
    assert rep.catalog == "O^3"


def test_split_top_line_off_the_derived_part():
    real = PoissonRealization(QQ, 0, 4, quotient=True)
    top = real.ring.monomial((), (1, 2, 3, 4))
    rep = check_split(real, top, xwindow=2, label="H'(0,4)")
    assert rep.ok
    assert rep.dim_window == 15 and rep.dim_derived == 14
    assert rep.codim_one and rep.ideal_failures == 0
    assert rep.ideal_checked == 210


def test_split_rejects_a_complement_inside_the_derived_part():
    real = PoissonRealization(QQ, 0, 4, quotient=True)
    inside = real.ring.monomial((), (1, 2))
    rep = check_split(real, inside, xwindow=2, label="H'(0,4)")
    assert not rep.ok
    assert rep.complement_in_derived


def test_split_of_the_divergence_free_vector_fields():
    real = VectorFieldRealization(QQ, 1, 2, constraint="div")
    mu = DiffOp.ddx(real.ring, 1, coeff=real.ring.monomial((0,), (1, 2)))
    rep = check_split(real, mu, xwindow=2, label="S'(1,2)")
    assert rep.ok
    assert rep.dim_window == 25 and rep.dim_derived == 24
    assert rep.ideal_checked == rep.ideal_checked - rep.ideal_failures == 408
