"""Polynomial models: bracket axioms, constraint kernels, field maps,
the twisted action on functions, pairings and splittings."""

from itertools import combinations_with_replacement
from math import comb, inf

import pytest
from hypothesis import given, settings, strategies as st

from nlielab import realizations
from nlielab.catalog import algebra_O
from nlielab.cli import main
from nlielab.fields import GF, QQ, field_from_name
from nlielab.liegen import Structure, closure_model, generate_subalgebra, structure_of
from nlielab.linalg import Span, matrix_of
from nlielab.multilinear import bracket_to_symmetric
from nlielab.polysuper import DiffOp, SuperPolyRing
from nlielab.realizations import (
    ButtinRealization,
    ContactRealization,
    GEN_SLACK,
    GradingSpec,
    PoissonRealization,
    SplitReport,
    VectorFieldRealization,
    check_split,
    pair_model,
    pair_setup,
    parse_handle,
    pi_act,
    pi_defect,
    saturation_edge,
    split_cases,
    verify_pair,
)
from nlielab.universal import WElement


# The carrier brackets as first written, summing out of place term by
# term: the oracles for the in-place accumulation in the library.

def poisson_bracket_ref(real, f, g):
    out = real.ring.zero()
    for fh in f.homogeneous_parts():
        if fh.is_zero():
            continue
        sgn = 1 if fh.parity() else -1
        acc = real.ring.zero()
        for i in range(1, real.ring.n + 1):
            acc = acc + fh.dxi(i) * g.dxi(i)
        part = acc if sgn > 0 else -acc
        k = real.ring.m // 2
        for i in range(1, k + 1):
            part = part + fh.dx(i) * g.dx(k + i)
            part = part - fh.dx(k + i) * g.dx(i)
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
        (PoissonRealization(QQ, 2, 2), poisson_bracket_ref),
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


# with the five split carriers: check_split counts its ideal sample on this
# premise, since its derived loop brackets the slack pairs i <= j only
@pytest.mark.parametrize("real", realization_zoo() + [
    pytest.param(real, id="split-%s-%s" % (field.name, label))
    for field in (QQ, GF(7)) for label, real, _, _ in split_cases(field)],
    ids=lambda r: r.name)
def test_bracket_is_superanticommutative(real):
    elems = real.window_elements(1)
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


@pytest.mark.parametrize("real", realization_zoo() + [ContactRealization(QQ, 2)],
                         ids=lambda r: r.name)
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


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["q", "fp:7"])
def test_split_labels_are_the_handles_of_their_carriers(field):
    for label, real, comp, asserted in split_cases(field):
        rebuilt = parse_handle(label, field)
        assert (type(rebuilt), rebuilt.name) == (type(real), real.name), label


def test_parse_handle_constructs_the_advertised_models():
    assert parse_handle("W(1,2)").name == "W(1,2)"
    assert parse_handle("S'(1,2)").name == "S'(1,2)"
    assert parse_handle("P(0,4)").name == "P(0,4)"
    assert parse_handle("H'(0,4)").name == "H'(0,4)"
    assert parse_handle("PO(3,3)").name == "PO(3,3)"
    assert parse_handle("SHO'(3,3)").name == "SHO'(3,3)"
    assert parse_handle("KO(2,3)").name == "KO(2,3)"
    sko = parse_handle("SKO'(2,3;1/3)")
    assert sko.name == "SKO'(2,3;1/3)" and sko.beta == QQ.scalar(1, 3)
    for bad in ("Q(1,1)", "PO(2,3)", "KO(2,4)", "W(1)"):
        with pytest.raises(ValueError):
            parse_handle(bad)


# int() would read these as W(10,2), KO(3,4), W(-1,2) and P(0,-1)
@pytest.mark.parametrize("bad", ["W(1_0,2)", "KO(\u0663,4)", "W(-1,2)", "P(0,-1)"])
def test_parse_handle_rejects_malformed_counts(bad):
    with pytest.raises(ValueError):
        parse_handle(bad)


# each carrier but SKO' ignores beta: a beta there would build the carrier
# without it, under a name that drops it
@pytest.mark.parametrize("bad", ["W(1,2;3)", "S'(1,2;3)", "P(0,4;2)", "H'(0,4;2)",
                                 "PO(3,3;2)", "SHO'(3,3;2)", "KO(2,3;5)"])
def test_parse_handle_rejects_a_beta_it_would_not_read(bad):
    with pytest.raises(ValueError, match="only SKO' takes a beta"):
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


def per_degree_bases(real, xwindow):
    """The graded pieces as first computed, one kernel per degree: the
    window candidates of each weight, cut on their own."""
    by_degree = {}
    for c in real._candidates(xwindow):
        (weight,) = {real._key_weight(real.grading, key) for key in real.vectorize(c)}
        by_degree.setdefault(weight - real.shift, []).append(c)
    return {d: basis for d, cands in by_degree.items() if (basis := real._cut(cands))}


def assert_read_off_one_kernel(real, xwindow):
    """The graded split equals the per-degree kernels element by element,
    and the window is the wider window's elements of x-degree <= xwindow."""
    assert real.graded_bases(xwindow) == per_degree_bases(real, xwindow), real.name
    wider = real.window_elements(xwindow + 2)
    assert real.window_elements(xwindow) == [e for e in wider if real.xdeg(e) <= xwindow]


@pytest.mark.parametrize("handle", sorted(WINDOW_TWO_DIMS))
def test_graded_bases_partition_the_window(handle):
    real = parse_handle(handle)
    for xwindow in range(3):
        assert_read_off_one_kernel(real, xwindow)
        window = real.window_elements(xwindow)
        dims = {d: len(basis) for d, basis in real.graded_bases(xwindow).items()}
        assert sum(dims.values()) == len(window)
        wspan = Span(QQ)
        for e in window:
            wspan.insert(real.vectorize(e))
            assert real.element(real.vectorize(e)) == e
        for basis in real.graded_bases(xwindow).values():
            for e in basis:
                assert real.contains(e) and wspan.contains(real.vectorize(e))
    assert {d: k for d, k in dims.items() if k} == WINDOW_TWO_DIMS[handle]


CARRIERS = ["split:%d" % i for i in range(5)] + [
    "pair:%s:%d" % (which, n) for which in ("i", "ii", "iii", "iv") for n in (3, 4)]


def carrier(source, xwindow, field):
    kind, *args = source.split(":")
    if kind == "split":
        return split_cases(field)[int(args[0])][1]
    return pair_setup(args[0], int(args[1]), xwindow, field).real


@pytest.mark.parametrize("field", ["q", "fp:2", "fp:7"])
@pytest.mark.parametrize("source", CARRIERS)
def test_windows_and_graded_pieces_are_read_off_one_kernel(source, field):
    for xwindow in (0, 1):
        assert_read_off_one_kernel(carrier(source, xwindow, field_from_name(field)), xwindow)


def test_graded_bases_refuse_an_element_off_the_grading(monkeypatch, capsys):
    real = parse_handle("SHO'(3,3)")
    monkeypatch.setattr(real, "_weights", lambda grading, f: {0, 1})
    with pytest.raises(RuntimeError, match="not homogeneous"):
        real.graded_bases(1)
    # a broken invariant, so the CLI exits 3, not 2 (usage)
    monkeypatch.setattr(realizations.Carrier, "_weights", lambda self, grading, f: {0, 1})
    assert main(["pairs", "ii", "--n", "3"]) == 3
    assert "not homogeneous" in capsys.readouterr().err


def test_each_split_and_pairing_solves_one_kernel(monkeypatch):
    calls = []
    for cls in (PoissonRealization, ButtinRealization, ContactRealization,
                VectorFieldRealization):
        def counted(self, xwindow, solve=cls.window_elements):
            calls.append(xwindow)
            return solve(self, xwindow)
        monkeypatch.setattr(cls, "window_elements", counted)
    for label, real, comp, asserted in split_cases():
        calls.clear()
        check_split(real, comp, 1, label=label, asserted=asserted)
        assert calls == [1 + GEN_SLACK], label
    for which in ("i", "ii", "iii", "iv"):
        calls.clear()
        verify_pair(which, 3, xwindow=1)
        assert calls == [1], which


def custom_graded():
    """The two custom gradings whose shifts
    ``test_incompatible_gradings_are_rejected`` pins."""
    return [PoissonRealization(QQ, 2, 2, grading=GradingSpec((1, 3), (2, 2))),
            ButtinRealization(QQ, 2, grading=GradingSpec((1, 1), (1, 1)))]


def test_incompatible_gradings_are_rejected():
    bad = [
        lambda: PoissonRealization(QQ, 0, 4, grading=GradingSpec((), (1, 1, 1, 2))),
        lambda: PoissonRealization(QQ, 2, 2, grading=GradingSpec((1, 2), (1, 1))),
        lambda: ButtinRealization(QQ, 2, grading=GradingSpec((0, 1), (1, 1))),
        lambda: ContactRealization(QQ, 2, grading=GradingSpec((0, 0), (1, 1, 2))),
    ]
    for build in bad:
        with pytest.raises(ValueError, match="not compatible"):
            build()
    # x_1 xi_1 weighs 2 + 1 under weights (2, 1 | 1, 1)
    assert GradingSpec((2, 1), (1, 1)).weight_key(((1, 0), (1,))) == 3
    # the shift is the one weight each pairing row takes off; a bracket
    # with no rows takes off nothing, whichever carrier it is
    assert PoissonRealization(QQ, 0, 4).shift == 2
    assert PoissonRealization(QQ, 0, 0).shift == 0
    assert ButtinRealization(QQ, 0).shift == parse_handle("SHO'(0,0)").shift == 0
    assert [real.shift for real in custom_graded()] == [4, 2]
    assert ContactRealization(QQ, 2).shift == 1
    assert VectorFieldRealization(QQ, 1, 2).shift == 0


def test_graded_dims_of_the_top_quotient_model():
    real = PoissonRealization(QQ, 0, 4, quotient=True)
    dims = {d: len(basis) for d, basis in real.graded_bases(0).items()}
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


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["q", "fp:7"])
def test_both_models_of_the_orthogonal_l_agree(field, n):
    # O(n)'s L as the W(V) closure of its seed and as the carrier
    # H'(0,n+1), whose window is all of L: the same pieces, dim
    # C(n+1, d+2) in degree d, and the same structure
    alg = algebra_O(n, field)
    mu = WElement.from_map(bracket_to_symmetric(alg.space, n, alg.bracket_parity,
                                                alg.bracket_keys))
    sub, trace = generate_subalgebra(mu.space, mu)
    assert trace.closed
    closure, carrier = closure_model(sub, mu), pair_model(pair_setup("i", n, 2, field), n, 2)
    want = {d: comb(n + 1, d + 2) for d in range(-1, n)}
    for model in (closure, carrier):
        dims = {d: len(basis) for d, basis in model.pieces.items()}
        assert {-1: len(model.depth), **dims} == want and model.depth_is_all
        # a line at the top, centralized, transitive and irreducible
        assert structure_of(model) == Structure(1, True, None, None, (True, None))
    # the L_0 action read off the images [u, e_j] is the coordinate
    # reading u(e_j) = sum_i c e_i over the coordinates ((j,), i) of u
    for u, row in zip(closure.pieces[0], closure.images(0)):
        assert matrix_of([{i: c for (_, i), c in img.items()} for img in row]) == {
            (i, j): c for ((j,), i), c in u.coords.items()}


def test_pairing_i_brackets_the_degree_zero_images_once(monkeypatch):
    # 6 centralizer, (6 + 4 + 1) * 4 transitivity and 9 induced-table
    # brackets (the 4 tuples share prefixes); irreducibility reads
    # transitivity's degree-0 images
    calls = []
    bracket = realizations.PoissonRealization.bracket

    def counted(self, f, g):
        calls.append(1)
        return bracket(self, f, g)

    monkeypatch.setattr(realizations.PoissonRealization, "bracket", counted)
    assert verify_pair("i", 3, xwindow=2).ok
    assert len(calls) == 59


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


def check_split_ref(real, complements, xwindow, gen_slack=2, label="",
                    asserted=True, ideal_xdeg=1):
    """``check_split`` as first written: every slack pair bracketed from
    plain elements, and every pair of the ideal sample too; the oracle
    for the prepared pieces, the weight cuts and the counted ideal
    sample in the library.  Returns one report per complement and the
    number of ideal-sample brackets outside the derived span."""
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
    return [SplitReport(label or real.name, xwindow, wspan.dim, dwspan.dim,
                        bool(wspan.contains(real.vectorize(c))) and real.contains(c),
                        bool(dspan_all.contains(real.vectorize(c))),
                        dwspan.dim == wspan.dim - 1, checked, asserted)
            for c in complements], failures


def complements_to_try(real, comp, xwindow):
    """The case's complement, one mixing the lowest and the highest
    x-degree of the window, a nonzero bracket of slack elements inside
    the window (so inside the derived part), the complement plus it, the
    complement plus the slack element of top x-degree, and a nonzero
    bracket of top x-degree with a slack element of top x-degree in it
    (derived, above the window)."""
    window, slack = real.window_elements(xwindow), real.window_elements(xwindow + 2)
    by_degree = sorted(window, key=lambda e: min(real.xdegrees(e)))
    inside = next(r for f in slack for g in slack
                  if real.vectorize(r := real.bracket(f, g)) and real.xdeg(r) <= xwindow)
    high = max(slack, key=lambda e: min(real.xdegrees(e)))
    for f in sorted(slack, key=lambda e: -min(real.xdegrees(e))):
        brackets = [r for e in slack if real.vectorize(r := real.bracket(f, e))]
        if brackets:
            far = max(brackets, key=lambda r: max(real.xdegrees(r)))
            break
    return [comp, by_degree[0] + by_degree[-1], inside, comp + inside, comp + high, far]


# ids: the window alone over QQ, fp:P-window over GF(P)
@pytest.mark.parametrize("field,xwindow", [
    pytest.param(GF(p) if p else QQ, w, id="%d" % w if p is None else "fp:%d-%d" % (p, w))
    for p in (None, 2, 7) for w in (0, 1)])
def test_split_reports_match_the_all_pairs_reference(field, xwindow):
    verdicts = []
    for label, real, comp, asserted in split_cases(field):
        tried = complements_to_try(real, comp, xwindow)
        got = [check_split(real, c, xwindow, label=label, asserted=asserted) for c in tried]
        # the counted ideal sample holds on every case: no bracket falls outside
        assert (got, 0) == check_split_ref(real, tried, xwindow, label=label,
                                           asserted=asserted)
        assert got[2].complement_in_derived and not got[2].ok
        verdicts.append(got[0].ok)
    # over GF(2) the window of SKO'(3,4;1) is not derived part plus one line
    assert verdicts[3] is (field.p != 2)


@pytest.mark.parametrize("case", range(5))
def test_split_carriers_are_x_graded(case):
    label, real, comp, asserted = split_cases()[case]
    for e in real.window_elements(1 + GEN_SLACK):
        assert len(real.xdegrees(e)) == 1, (label, e)
    assert brackets_weigh_the_sum_less_the_shift(real, real.xgrading, real.xshift)


def brackets_weigh_the_sum_less_the_shift(real, grading, shift) -> int:
    """Assert that each nonzero bracket of two ``grading``-homogeneous
    elements of window 1 weighs w(f) + w(g) - shift; the count of them."""
    window, weights = [], []
    for e in real.window_elements(1):
        if len(ws := real._weights(grading, e)) == 1:
            window.append(e)
            weights.append(ws.pop())
    rights = [real.prepare_right(g) for g in window]
    checked = 0
    for f, wf in zip(window, weights):
        left = real.prepare_left(f)
        for g, wg, right in zip(window, weights, rights):
            r = real.bracket(left, right)
            if real.vectorize(r):
                checked += 1
                assert real._weights(grading, r) == {wf + wg - shift}, (real.name, f, g)
    return checked


def shift_carriers():
    """Every carrier a test names: the zoo, the splittings, the pairings
    at arity 3..5 and the custom gradings."""
    return ([pytest.param(real, id="zoo-" + real.name) for real in realization_zoo()]
            + [pytest.param(real, id="split-" + label) for label, real, _, _ in split_cases()]
            + [pytest.param(pair_setup(which, n, 1).real, id="pair-%s-%d" % (which, n))
               for which in ("i", "ii", "iii", "iv") for n in (3, 4, 5)]
            + [pytest.param(real, id="graded-" + real.name) for real in custom_graded()])


@pytest.mark.parametrize("real", shift_carriers())
@pytest.mark.parametrize("x", [False, True], ids=["grading", "x-grading"])
def test_brackets_weigh_the_sum_less_the_shift(real, x):
    # the shift read off the pairing rows is what each bracket takes off
    grading, shift = (real.xgrading, real.xshift) if x else (real.grading, real.shift)
    assert brackets_weigh_the_sum_less_the_shift(real, grading, shift)


def test_x_grading_shifts_and_the_flat_contact_variable():
    assert [real.xshift for _, real, _, _ in split_cases()] == [0, 0, 1, 1, 1]
    assert PoissonRealization(QQ, 2, 0).xshift == 2
    assert PoissonRealization(QQ, 2, 2).xshift == 2
    assert ButtinRealization(QQ, 2).xshift == ContactRealization(QQ, 2).xshift == 1

    class FlatContact(ContactRealization):  # tau at weight 0, unlike the x_i
        def _x_grading(self):
            return GradingSpec((1,) * self.m, (0,) * (self.m + 1))

    with pytest.raises(ValueError, match="not compatible"):
        FlatContact(QQ, 3, constraint="div")


def test_split_refuses_a_slack_element_off_the_x_grading(monkeypatch):
    label, real, comp, asserted = split_cases()[2]
    monkeypatch.setattr(real, "xdegrees", lambda f: {0, 1})
    with pytest.raises(RuntimeError, match="not x-homogeneous"):
        check_split(real, comp, 0, label=label)


def test_split_brackets_only_the_slack_pairs_below_a_full_weight():
    # --xwindow 2: of the slack pairs that reach the complement's or the
    # window's weights, those below a full weight are bracketed; the ideal
    # sample is counted, not bracketed
    brackets, ideal = [], []
    for label, real, comp, asserted in split_cases():
        calls = [0]

        def counted(f, g, bracket=real.bracket):
            calls[0] += 1
            return bracket(f, g)

        real.bracket = counted
        rep = check_split(real, comp, 2, label=label, asserted=asserted)
        brackets.append(calls[0])
        ideal.append(rep.ideal_checked)
    assert brackets == [66, 120, 227, 1170, 724]
    assert ideal == [408, 210, 1296, 3705, 2765]


def test_split_keeps_bracketing_a_weight_the_slack_cannot_span(monkeypatch):
    # S'(1,2) at --xwindow 2: x^5 d/dx weighs 4 but lies past the slack
    # window, so its 5 slack elements of weight 4 span less of the carrier
    # than the 8 rows the derived part has there
    label, real, comp, asserted = split_cases()[0]
    slack = real.window_elements(2 + GEN_SLACK)
    assert saturation_edge(real, 2 + GEN_SLACK) == 4
    assert sum(real.xdegrees(e) == {4} for e in slack) == 5
    derived = Span(QQ)
    for f, g in combinations_with_replacement(slack, 2):
        if v := real.vectorize(real.bracket(f, g)):
            derived.insert(v)
    tried = [d for d in map(real.element, derived.rows) if real.xdegrees(d) == {4}]
    assert len(tried) == 8
    got = [check_split(real, c, 2, label=label) for c in tried]
    assert (got, 0) == check_split_ref(real, tried, 2, label=label)
    assert all(rep.complement_in_derived for rep in got)
    # counting weight 4 as full would stop its derived rows at 5
    monkeypatch.setattr(realizations, "saturation_edge", lambda real, xdegree: inf)
    assert not all(check_split(real, c, 2, label=label).complement_in_derived
                   for c in tried)


def test_split_counts_every_weight_of_h04_as_full():
    # no even variable: every key lies in every slack window
    label, real, comp, asserted = split_cases()[1]
    assert saturation_edge(real, 2 + GEN_SLACK) == inf


def test_split_refuses_a_bracket_outside_the_carrier(monkeypatch, capsys):
    # x1 d/dx1 has divergence 1, so every bracket it is added to is off S'(1,2)
    def broken(self, X, Y):
        return X.bracket(Y) + DiffOp.ddx(self.ring, 1, coeff=self.ring.x(1))

    monkeypatch.setattr(VectorFieldRealization, "bracket", broken)
    label, real, comp, asserted = split_cases()[0]
    with pytest.raises(RuntimeError, match=r"S'\(1,2\): a bracket leaves the carrier"):
        check_split(real, comp, 0, label=label)
    assert main(["report", "--xwindow", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "internal error: RuntimeError(\"S'(1,2): a bracket leaves the carrier\")"]


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
    assert rep.codim_one and rep.ideal_checked == 210


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
    assert rep.ideal_checked == 408
