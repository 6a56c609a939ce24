"""Acceptance suite: twelve numbered end-to-end checks, one test each.

Every check recomputes its claim from scratch in exact arithmetic and
prints a single [PASS]/[FAIL] summary line (run pytest with -s to see
the lines for passing checks too).
"""

import json
import math
import os
import subprocess
import sys
import time
from itertools import combinations

from nlielab.fields import QQ
from nlielab.catalog import (
    BorderedNAry,
    GeneralizedJacobianNAry,
    algebra_O,
    algebra_S,
    algebra_SW,
    algebra_W,
    dzhumadildaev_closed,
)
from nlielab.charp import CharPSeed, charp_fj_check, charp_generation, q_control
from nlielab.derivations import analyze_derivations
from nlielab.liegen import (
    check_admissible,
    check_mu_relations,
    check_truncation,
    generate_subalgebra,
)
from nlielab.linalg import envelope_dim
from nlielab.multilinear import bracket_to_symmetric
from nlielab.nlie import FiniteNAryAlgebra, check_filippov, filippov_defect
from nlielab.polysuper import DiffOp, SuperPolyRing
from nlielab.realizations import check_splits, verify_pair
from nlielab.superspace import SuperSpace
from nlielab.universal import WElement
from test_liegen import mu_relations_by_tuples

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def conclude(num: int, desc: str, ok: bool, elapsed: float, bound: float,
             detail: str = ""):
    status = "PASS" if (ok and elapsed < bound) else "FAIL"
    line = "[%s] %02d %s (%.2fs, bound %gs)" % (status, num, desc, elapsed, bound)
    print(line)
    assert ok, "%s\n%s" % (line, detail)
    assert elapsed < bound, line


def seed_of(alg):
    """Symmetrized top generator of a finite n-ary algebra, as a
    degree n-1 element of the universal algebra on the reversed space."""
    mm = bracket_to_symmetric(alg.space, alg.arity, alg.bracket_parity,
                              alg.bracket_keys)
    return mm.space, WElement.from_map(mm)


def test_01_cross_product_identity_exhaustive():
    t0 = time.perf_counter()
    r3 = check_filippov(algebra_O(3), mode="full")
    r4 = check_filippov(algebra_O(4), mode="full")
    elapsed = time.perf_counter() - t0
    ok = (r3.ok and r3.instances == 4 ** 5
          and r4.ok and r4.instances == 5 ** 7)
    conclude(1, "cross-product brackets satisfy the fundamental identity "
                "on every basis tuple (4^5 and 5^7 instances)",
             ok, elapsed, 5, detail="witness: %r / %r" % (r3.witness, r4.witness))


def test_02_polynomial_family_identity_on_window():
    t0 = time.perf_counter()
    reports = {}
    for name, alg, expect in [("divergence-free", algebra_S(3), 165699),
                              ("jacobian", algebra_W(3), 5400),
                              ("tagged", algebra_SW(3), 1568)]:
        keys = alg.window_keys(3)
        rep = check_filippov(alg, keys=keys, mode="sorted")
        reports[name] = (rep, expect)
    elapsed = time.perf_counter() - t0
    ok = all(rep.ok and rep.instances == expect
             for rep, expect in reports.values())
    detail = "; ".join("%s: ok=%s instances=%d" % (n, r.ok, r.instances)
                       for n, (r, _) in reports.items())
    conclude(2, "three polynomial bracket families satisfy the fundamental "
                "identity on all degree<=3 monomial tuples",
             ok, elapsed, 30, detail=detail)


def test_03_generated_subalgebra_graded_dimensions():
    t0 = time.perf_counter()
    space, mu = seed_of(algebra_O(3))
    sub, trace = generate_subalgebra(space, mu, cap=4)
    dims = {d: sub.dim(d) for d in range(-1, 5)}
    elapsed = time.perf_counter() - t0
    want = {d: math.comb(4, d + 2) for d in range(-1, 3)}
    want.update({3: 0, 4: 0})
    ok = dims == want and trace.reached_fixpoint
    conclude(3, "subalgebra generated by the symmetrized cross-product "
                "has graded dimensions 4,6,4,1 then zero",
             ok, elapsed, 5, detail="dims=%r want=%r" % (dims, want))


def test_04_truncation_structure_both_arities():
    t0 = time.perf_counter()
    results = []
    for n in (3, 4):
        space, mu = seed_of(algebra_O(n))
        rep = check_truncation(space, mu)
        results.append((n, rep))
    elapsed = time.perf_counter() - t0
    ok = all(rep.ok and rep.top_is_line and rep.opposite_pairs_commute
             and rep.positive_part_ideal for _, rep in results)
    detail = "; ".join("n=%d failures=%r" % (n, rep.failures)
                       for n, rep in results)
    conclude(4, "generated algebras truncate: top line, opposite degrees "
                "commute, lower part is an ideal (arities 3 and 4)",
             ok, elapsed, 10, detail=detail)


def test_05_seed_relations_exhaustive():
    t0 = time.perf_counter()
    space, mu = seed_of(algebra_O(3))
    rep = check_mu_relations(space, mu)
    # the test-only walk over all basis tuples of length 0..2 on a
    # 4-dim space: 1 + 4 + 16
    walk = mu_relations_by_tuples(space, mu)
    elapsed = time.perf_counter() - t0
    # the sweep checks a basis of each level L_2, L_1, L_0:
    # C(4, j+2) for j = 2, 1, 0, that is 1 + 4 + 6
    ok = (rep.ok and rep.self_bracket_zero and rep.checked == 11
          and walk.ok and walk.checked == 21)
    conclude(5, "seed kills its own descendants (bracket and composition "
                "forms) on the 11 basis descendants and over all 21 basis "
                "tuples, and [mu,mu]=0",
             ok, elapsed, 10, detail="checked=%d witness=%r; walk checked=%d witness=%r"
             % (rep.checked, rep.witness, walk.checked, walk.witness))


def test_06_action_envelope_fills_matrix_algebra():
    t0 = time.perf_counter()
    space, mu = seed_of(algebra_O(3))
    sub, _ = generate_subalgebra(space, mu, cap=4)
    field, dim = space.field, space.dim
    # a degree-0 element sends e_j to sum_i c e_i for its coordinates ((j,), i)
    mats = [{(i, j): c for ((j,), i), c in u.coords.items()} for u in sub.basis(0)]
    env = envelope_dim(field, mats, dim)
    elapsed = time.perf_counter() - t0
    ok = env == dim * dim == 16
    conclude(6, "associative envelope of the degree-zero action on the "
                "depth module has dimension exactly 16",
             ok, elapsed, 5, detail="envelope dim %d of %d" % (env, dim * dim))


def test_07_realization_brackets_match_catalog():
    t0 = time.perf_counter()
    rep_i = verify_pair("i", 3, xwindow=2)
    rep_iv = verify_pair("iv", 3, xwindow=2)
    elapsed = time.perf_counter() - t0

    def induced(rep):
        return next(c for c in rep.checks
                    if c.name == "induced_bracket_matches_catalog")

    ok = (induced(rep_i).ok and rep_i.scalar == QQ.scalar(-1)
          and induced(rep_iv).ok and rep_iv.scalar == QQ.one())
    detail = "i: %s scalar=%s; iv: %s scalar=%s" % (
        induced(rep_i).detail, rep_i.scalar, induced(rep_iv).detail,
        rep_iv.scalar)
    conclude(7, "induced brackets from the two realizations match the "
                "catalog tables up to one global nonzero scalar",
             ok, elapsed, 30, detail=detail)


def test_08_codimension_one_splits():
    t0 = time.perf_counter()
    reports = {r.label: r for r in check_splits(xwindow=2)}
    elapsed = time.perf_counter() - t0
    want = {"S'(1,2)": (25, 24), "H'(0,4)": (15, 14),
            "SHO'(3,3)": (55, 54), "SKO'(3,4;1)": (96, 95)}
    ok = True
    details = []
    for label, (total, derived) in want.items():
        r = reports[label]
        good = (r.ok and r.asserted and r.dim_window == total
                and r.dim_derived == derived)
        ok = ok and good
        details.append("%s: %d=%d+1 ideal %d/%d ok=%s" % (
            label, r.dim_window, r.dim_derived, r.ideal_checked, r.ideal_checked, r.ok))
    conclude(8, "four window algebras split as derived part plus a "
                "one-dimensional complement acting on an ideal",
             ok, elapsed, 60, detail="; ".join(details))


def test_09_derivations_all_inner():
    t0 = time.perf_counter()
    d3 = analyze_derivations(algebra_O(3))
    d4 = analyze_derivations(algebra_O(4))
    elapsed = time.perf_counter() - t0
    ok = (d3.dim_der == d3.dim_inder == 6 and d3.der_equals_inder
          and d3.ideal_ok and d4.dim_der == d4.dim_inder == 10
          and d4.der_equals_inder and d4.ideal_ok)
    detail = "n=3: %d/%d ideal=%s; n=4: %d/%d ideal=%s" % (
        d3.dim_der, d3.dim_inder, d3.ideal_ok,
        d4.dim_der, d4.dim_inder, d4.ideal_ok)
    conclude(9, "derivation spaces have dimensions 6 and 10, every "
                "derivation is inner, and inner derivations form an ideal",
             ok, elapsed, 10, detail=detail)


def test_10_window_identity_agrees_with_span_closure():
    # Hand proof.  With m operators D_i = sum_k M_ik d_k in m variables,
    # rows 2..m+1 of the bordered matrix (f_j; D_1 f_j; ...; D_m f_j) are
    # M times the rows d_k f_j, so the bracket is det(M) * W, W the
    # bordered Jacobian bracket.  With more operators than variables the
    # operator rows are dependent over the ring and the bracket is zero.
    # Both satisfy the identity: the zero bracket trivially, and phi * W
    # because f -> f / psi carries W to psi^(1-n) * W.  So
    #   {d}               -> W (arity 2)        [closed]
    #   {d, x d}          -> 0                  [d, x d] = d, closed
    #   {d1, d2}          -> W (arity 3)        [closed]
    #   {d, x^2 d}        -> 0                  [d, x^2 d] = 2x d, not closed
    #   {x d1, x d2 + d1} -> x1^2 W, psi = 1/x1 [.,.] = x1 d2 - d1, not closed
    # The identity therefore holds on all five sets while span closure
    # fails on the last two: closure is not necessary for the identity.
    R1 = SuperPolyRing(QQ, 1, 0)
    R2 = SuperPolyRing(QQ, 2, 0)
    x = R1.x(1)
    # (label, ring, operators, closure verdict, monomial factor or None
    # for the zero bracket)
    sets = [
        ("{d}", R1, [DiffOp.ddx(R1, 1)], (True, None), (0,)),
        ("{d, x d}", R1, [DiffOp.ddx(R1, 1), DiffOp.ddx(R1, 1, coeff=x)],
         (True, None), None),
        ("{d1, d2}", R2, [DiffOp.ddx(R2, 1), DiffOp.ddx(R2, 2)],
         (True, None), (0, 0)),
        ("{d, x^2 d}", R1, [DiffOp.ddx(R1, 1),
                            DiffOp.ddx(R1, 1, coeff=x * x)],
         (False, (0, 1)), None),
        ("{x d1, x d2 + d1}", R2, [DiffOp.ddx(R2, 1, coeff=R2.x(1)),
                                   DiffOp.ddx(R2, 2, coeff=R2.x(1))
                                   + DiffOp.ddx(R2, 1)],
         (False, (0, 1)), (2, 0)),
    ]
    t0 = time.perf_counter()
    rows = []
    for label, ring, ops, want_closed, factor in sets:
        alg = GeneralizedJacobianNAry(QQ, ring.m, ops, bordered=True)
        keys = alg.window_keys(3)
        rep = check_filippov(alg, keys=keys, mode="sorted")
        closed = dzhumadildaev_closed(ops)
        w = None if factor is None else BorderedNAry(QQ, alg.arity)
        mismatches = 0
        for tup in combinations(keys, alg.arity):
            want = {} if w is None else {
                tuple(a + b for a, b in zip(k, factor)): c
                for k, c in w.bracket_keys(tup).items()}
            if alg.bracket_keys(tup) != want:
                mismatches += 1
        rows.append((label, rep.ok, closed == want_closed, closed,
                     mismatches))
    elapsed = time.perf_counter() - t0
    ok = all(fj and closure_ok and not bad
             for _, fj, closure_ok, _, bad in rows)
    detail = "; ".join("%s fj=%s closed=%r bracket mismatches=%d"
                       % (l, f, c, m) for l, f, _, c, m in rows)
    conclude(10, "windowed fundamental identity holds on all five operator "
                 "sets, span closure fails on two, and each bracket is "
                 "det(M) times the bordered Jacobian bracket",
             ok, elapsed, 30, detail=detail)


def test_11_prime_field_obstruction():
    # Hand proof.  For the odd seed [a,...,a] = a of odd arity n the
    # identity has no signs: the left side is [a,...,a,[a,...,a]] = a and
    # the right side has n equal terms, so the residue is (1 - n) a.  It
    # vanishes over GF(p) because p divides n - 1 = s p, and over QQ at
    # n = 7 it is -6, so the characteristic-0 truncation theorem does not
    # apply to this seed.  Over QQ, [d, x^c d] = c x^(c-1) d descends from
    # x^7 d to d, and [x^2 d, x^c d] = (c - 2) x^(c+1) d climbs from x^7 d
    # upwards, so the closure holds every x^a d: degrees -1..14 at cap 14.
    t0 = time.perf_counter()
    fj_ok = True
    for p, s in [(2, 1), (3, 2), (5, 2)]:
        rep = charp_fj_check(CharPSeed(p, s))
        fj_ok = fj_ok and rep.ok
    gen = charp_generation(CharPSeed(3, 2), cap=12)
    exhibited = (not gen.bound_holds) and gen.max_degree == 11 > gen.n - 1
    n = 7
    space = SuperSpace(QQ, ("a",), (1,))
    seed_q = FiniteNAryAlgebra(space, n, (n + 1) % 2,
                               {(0,) * n: {0: QQ.one()}})
    residue = filippov_defect(seed_q, (0,) * (n - 1), (0,) * n).get(0, QQ.zero())
    ctl = q_control(n, 14)
    elapsed = time.perf_counter() - t0
    q_fails = residue == QQ.coerce(-6)
    q_escapes = (not ctl.bound_holds) and ctl.degrees == tuple(range(-1, 15))
    ok = fj_ok and exhibited and q_fails and q_escapes
    detail = ("fundamental identity over GF(2), GF(3), GF(5): %s; GF(3) "
              "generation reaches degree %d past the classical bound %d: "
              "%s; the same seed over QQ has residue %s (want -6); rational "
              "generation escapes (violation %r, degrees %r): %s"
              % (fj_ok, gen.max_degree, gen.n - 1, exhibited, residue,
                 ctl.violation, ctl.degrees, q_escapes))
    conclude(11, "prime-field seeds pass the identity and generation "
                 "escapes the degree bound over GF(3), while the same seed "
                 "over the rationals fails the identity",
             ok, elapsed, 5, detail=detail)


def test_12_verifier_output_deterministic(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / ("out_%s.json" % tag)
        proc = subprocess.run(
            [sys.executable, "-m", "nlielab", "verify", "O", "--n", "3",
             "--json", str(path)],
            capture_output=True, env=env)
        outs.append((proc.returncode, proc.stdout, path.read_bytes()))
    ok = (outs[0] == outs[1] and outs[0][0] == 0)
    blob = json.loads(outs[0][2])
    ok = ok and isinstance(blob, dict)
    conclude(12, "two verifier runs produce byte-identical stdout and "
                 "JSON reports",
             ok, 0.0, 1, detail="returncodes %d/%d" % (outs[0][0],
                                                       outs[1][0]))
