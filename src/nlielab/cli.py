"""Command line front end.

Four commands:

* ``verify``  -- build a catalog algebra (or load a bracket table) and
  run its verification suite;
* ``pairs``   -- window checks for one of the four top-element pairings
  and the induced-bracket comparison against the catalog;
* ``charp``   -- the prime-characteristic experiments;
* ``report``  -- the carrier splitting reports.

Exit code 0 when every record passes, 1 when any record fails, 2 on
usage errors or unreadable inputs, 3 on an internal error, 141 when the
reader closes stdout before the report is written.  Reports render deterministically:
rerunning a configuration reproduces the bytes.
"""

import argparse
import os
import sys

from .catalog import algebra_O, algebra_S, algebra_SW, algebra_W, parse_form
from .charp import CharPSeed, charp_fj_check, charp_generation, q_control
from .fields import field_from_name, parse_int
from .liegen import check_admissible, check_mu_relations, check_truncation
from .multilinear import bracket_to_symmetric
from .nlie import check_filippov, parse_table
from .realizations import check_splits, verify_pair
from .reports import Report
from .universal import WElement


MODE_NAMES = {"full": "exhaustive", "sorted": "sorted"}
# read by ``fields.parse_int`` in ``main``: argparse's int takes '1_0' and
# digits of other scripts
INT_OPTIONS = ("n", "window", "xwindow", "p", "s", "cap", "seed")
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended


def _fmt_dims(dims: dict) -> str:
    return "{" + ", ".join("%d: %d" % (d, dims[d]) for d in sorted(dims)) + "}"


# ---------------------------------------------------------------------------
# verify


def _finite_suite(rep: Report, alg):
    fj = check_filippov(alg)
    rep.add("filippov_jacobi", fj.ok, "%d instances, %s" % (fj.instances, MODE_NAMES[fj.mode]),
            witness=fj.witness)

    mm = bracket_to_symmetric(alg.space, alg.arity, alg.bracket_parity,
                              alg.bracket_keys)
    mu = WElement.from_map(mm)
    rev = mu.space

    # one closure, capped at the top and stored on mu, serves every
    # structure check; only a closed one is the generated algebra
    adm = check_admissible(rev, mu)
    trace = adm.generation
    closed = trace.closed

    def held(ok, witness_stays=False):
        # an open closure may still grow: a pass decides nothing there, a
        # fail only on a witness that no growth removes
        return ok if closed or (ok is False and witness_stays) else None

    escape = trace.escape  # a nonzero bracket above the top stays in any closure
    rep.add("pair_graded_dims", held(escape is None, True),
            "%s, %d rounds, closed %s"
            % (_fmt_dims(adm.graded_dims), trace.nrounds - 1, "yes" if closed else "no"),
            witness=escape and "[degree %d, degree %d] bracket lands above degree %d"
            % (*escape, trace.cap),
            dims=adm.graded_dims)
    found = adm.structure
    rep.add("pair_transitive", held(found.transitive, True), "",
            witness=found.kernel and found.kernel[2])
    rep.add("pair_top_centralizes", held(found.centralizes, True), "", witness=found.moves_mu)
    rep.add("pair_top_is_line", held(found.top_is_line, found.top_dim >= 2), "")
    rep.add("pair_irreducible", held(found.irreducibility[0]), adm.irreducibility_detail)

    trep = check_truncation(rev, mu)
    detail = ("vanishing above top %s, line %s, swept %s, opposite %s, ideal %s"
              % (trep.vanishing_above, trep.top_is_line, trep.components_from_top,
                 trep.opposite_pairs_commute, trep.positive_part_ideal))
    rep.add("truncation_structure", trep.ok, detail,
            witness=trep.failures or None)

    mrep = check_mu_relations(rev, mu)
    rep.add("seed_relations", mrep.ok,
            "%d basis descendants, self bracket zero: %s"
            % (mrep.checked, mrep.self_bracket_zero),
            witness=mrep.witness)


def cmd_verify(args, field) -> Report:
    window, n = args.window, 3 if args.n is None and not args.table else args.n
    config = {"selector": args.selector, "n": n, "field": field.name,
              "window": window, "table": args.table,
              "form": args.form, "seed": args.seed}
    rep = Report("verify", config)
    if args.table and args.selector:
        raise ValueError("give a selector or --table, not both")
    if args.form and args.selector != "O":
        raise ValueError("--form applies to selector O only")
    if window is not None and (args.table or args.selector == "O"):
        raise ValueError("--window applies to selectors S, W and SW only")
    if window is not None and window < 0:
        raise ValueError("--window must be at least 0")

    if args.table:
        with open(args.table) as fh:
            alg = parse_table(fh.read())
        # the table's header fixes the field and the arity it is checked over
        if args.field is not None and field != alg.field:
            raise ValueError("--field %s disagrees with the table's field %s"
                             % (field.name, alg.field.name))
        if n is not None and n != alg.arity:
            raise ValueError("--n %d disagrees with the table's arity %d" % (n, alg.arity))
        config.update(field=alg.field.name, n=alg.arity)
        fj = check_filippov(alg)
        rep.add("filippov_jacobi", fj.ok,
                "%d instances on a %d-dim table of arity %d, %s"
                % (fj.instances, alg.space.dim, alg.arity, MODE_NAMES[fj.mode]),
                witness=fj.witness)
        return rep

    if not args.selector:
        raise ValueError("verify needs a selector (O, S, W, SW) or --table")
    if n < 2:
        raise ValueError("--n must be at least 2")

    if args.selector == "O":
        form = None
        if args.form:
            with open(args.form) as fh:
                form = parse_form(fh.read(), field)
        alg = algebra_O(n, field, form=form)
        _finite_suite(rep, alg)
        return rep

    factory = {"S": algebra_S, "W": algebra_W, "SW": algebra_SW}[args.selector]
    alg = factory(n, field)
    w = window if window is not None else 3
    keys = alg.window_keys(w)
    fj = check_filippov(alg, keys=keys)
    # no instance is no evidence: an empty window decides nothing
    rep.add("filippov_jacobi", fj.ok if fj.instances else None,
            "%d instances over %d window keys (degree <= %d)"
            % (fj.instances, len(keys), w),
            witness=fj.witness)
    rep.add("pair_admissible", None,
            "infinite carrier; window evidence lives under the pairs command")
    return rep


# ---------------------------------------------------------------------------
# pairs


def cmd_pairs(args, field) -> Report:
    config = {"which": args.which, "n": args.n, "xwindow": args.xwindow,
              "field": field.name, "seed": args.seed}
    rep = Report("pairs", config)
    if args.n < 3:
        raise ValueError("--n must be at least 3")
    if args.xwindow < 0:
        raise ValueError("--xwindow must be at least 0")
    prep = verify_pair(args.which, args.n, args.xwindow, field)
    for c in prep.checks:
        rep.add(c.name, c.ok, c.detail)
    rep.add("realization", True, "%s against %s" % (prep.realization, prep.catalog))
    return rep


# ---------------------------------------------------------------------------
# charp


def cmd_charp(args, field) -> Report:
    if args.field is not None:
        raise ValueError("--field does not apply to charp: it runs over fp:P for --p P")
    seed = CharPSeed(args.p, args.s)
    cap = args.cap if args.cap is not None else 2 * seed.n + 3
    config = {"p": args.p, "s": args.s, "n": seed.n, "cap": cap, "seed": args.seed}
    rep = Report("charp", config)
    if cap < seed.n:
        # below the arity every degree is at most n-1 and the control passes vacuously
        raise ValueError("--cap must be at least the arity n = %d" % seed.n)

    fj = charp_fj_check(seed)
    rep.add("fj_residue_zero", fj.ok,
            "residue %s at arity %d over %s" % (fj.residue, fj.n, seed.field.name))

    prof = charp_generation(seed, cap)
    detail = "exponents %s, degrees %s" % (list(prof.exponents), list(prof.degrees))
    if prof.violation:
        a, b, e = prof.violation
        detail += "; exponents (%d, %d) reach %d, degree %d > %d" % (
            a, b, e, e - 1, seed.n - 1)
    rep.add("bound_violation_exhibited", prof.violation is not None, detail)

    q = q_control(seed.n, cap)
    detail = "degrees %s; bound %s" % (
        list(q.degrees), "holds" if q.bound_holds else "exceeded")
    rep.add("rational_control_truncates", q.bound_holds, detail)
    return rep


# ---------------------------------------------------------------------------
# report


def cmd_report(args, field) -> Report:
    config = {"xwindow": args.xwindow, "field": field.name, "seed": args.seed}
    rep = Report("report", config)
    if args.xwindow < 0:
        raise ValueError("--xwindow must be at least 0")
    for srep in check_splits(args.xwindow, field):
        detail = ("window %d = %d + %d, complement outside derived: %s, ideal %d/%d"
                  % (srep.dim_window, srep.dim_derived, srep.dim_window - srep.dim_derived,
                     not srep.complement_in_derived, srep.ideal_checked, srep.ideal_checked))
        status = srep.ok if srep.asserted else None
        if not srep.asserted:
            detail += ", reported without assertion (window outcome: %s)" % srep.ok
        rep.add("split_" + srep.label, status, detail)
    return rep


# ---------------------------------------------------------------------------
# plumbing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nlielab",
        description="exact verification suites for n-ary bracket algebras")
    sub = p.add_subparsers(dest="command")

    def common(sp, field_help="q (the default) or fp:P"):
        sp.add_argument("--field", help=field_help)
        sp.add_argument("--json", metavar="PATH", help="write the JSON report here")
        sp.add_argument("--seed", default=0, help="echoed into the report")

    v = sub.add_parser("verify", help="verification suite for one algebra")
    v.add_argument("selector", nargs="?", choices=["O", "S", "W", "SW"])
    v.add_argument("--n", help="bracket arity (default 3)")
    v.add_argument("--window", help="monomial degree window (default 3)")
    v.add_argument("--table", metavar="FILE", help="bracket table to load instead")
    v.add_argument("--form", metavar="FILE", help="symmetric form matrix for O")
    common(v)

    pr = sub.add_parser("pairs", help="top-element pairing checks")
    pr.add_argument("which", choices=["i", "ii", "iii", "iv"])
    pr.add_argument("--n", default=3, help="bracket arity")
    pr.add_argument("--xwindow", default=2, help="x-degree window (default 2)")
    common(pr)

    c = sub.add_parser("charp", help="prime characteristic experiments")
    c.add_argument("--p", required=True)
    c.add_argument("--s", default=1)
    c.add_argument("--cap")
    common(c, argparse.SUPPRESS)  # charp runs over fp:P and refuses --field

    r = sub.add_parser("report", help="carrier splitting reports")
    r.add_argument("--xwindow", default=2, help="x-degree window (default 2)")
    common(r)
    return p


COMMANDS = {
    "verify": cmd_verify,
    "pairs": cmd_pairs,
    "charp": cmd_charp,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        for name in INT_OPTIONS:
            if isinstance(text := getattr(args, name, None), str):
                setattr(args, name, parse_int(text))
        field = field_from_name("q" if args.field is None else args.field)
        rep = COMMANDS[args.command](args, field)
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(rep.to_json())
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a broken invariant, never a failed check
        print("internal error: %r" % exc, file=sys.stderr)
        return 3
    try:
        print(rep.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit as SIGPIPE would, with stdout on
        # devnull so that the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the report was written", file=sys.stderr)
        return EXIT_BROKEN_PIPE
    return rep.exit_code()


if __name__ == "__main__":
    sys.exit(main())
