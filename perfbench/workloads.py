"""The four benchmark workloads: inputs from a seed, one invocation, and
the expected-output gate.

Each workload does most of its work in a different layer of nlielab, so
a change to one layer shows on one workload and its predicted "no
change" shows on the others.  Every invocation goes through a stable
public entry point: the CLI's ``main`` for the command workloads, and
the documented quick-start calls for ``generation_o5``.

The gate compares verdicts and mathematical invariants (record status,
graded dimensions, window and derived dimensions), never the bytes of
detail text, so records may gain fields without tripping it.
"""

import contextlib
import io
import json
import math
import os
import random
import re

from nlielab import catalog, cli, liegen, multilinear, nlie, universal
from nlielab.fields import QQ

# Primes above every structure constant of the S(3) degree-3 window, so no
# coefficient vanishes mod P and the work does not depend on which is drawn.
PRIMES = [10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093]
FORM_MAGNITUDES = [1, 2, 3, 5, 7]

# Problem sizes: "full" is the benchmark, "tiny" runs the same code paths
# in a few seconds for the self-test.
SIZES = {
    "full": {"window": 3, "n": 5, "xwindow": 2},
    "tiny": {"window": 1, "n": 3, "xwindow": 0},
}

# (window dim, derived dim) of each asserted splitting, and of the one
# reported without assertion, per --xwindow.
SPLITS = {
    2: {"S'(1,2)": (25, 24), "H'(0,4)": (15, 14), "SHO'(3,3)": (55, 54),
        "SKO'(3,4;1)": (96, 95)},
    0: {"S'(1,2)": (9, 8), "H'(0,4)": (15, 14), "SHO'(3,3)": (7, 6),
        "SKO'(3,4;1)": (9, 8)},
}
UNASSERTED = {2: ("SKO'(3,4;1/3)", (80, 79)), 0: ("SKO'(3,4;1/3)", (11, 10))}
WINDOW_RE = re.compile(r"window (\d+) = (\d+) \+ 1")


class CommandWorkload:
    """One CLI command run in-process; its JSON report is the outcome."""

    def __init__(self, name, argv, check):
        self.name = name
        self._argv = argv
        self._check = check

    def make_inputs(self, seed, size):
        argv = self._argv(seed, SIZES[size]) + ["--seed", str(seed)]
        return {"argv": argv, "seed": seed, "size": size}

    def run(self, inputs, outdir):
        path = os.path.join(outdir, "report-%s.json" % self.name)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(inputs["argv"] + ["--json", path])
        with open(path) as fh:
            report = json.load(fh)
        return {"exit_code": code, "report": report}

    def check(self, outcome, inputs):
        """Return the list of misses; empty means the invocation passed."""
        report = outcome["report"]
        misses = []
        if outcome["exit_code"] != 0:
            misses.append("exit code %r" % outcome["exit_code"])
        if report.get("config", {}).get("seed") != inputs["seed"]:
            misses.append("seed not echoed")
        status = {r["name"]: r["status"] for r in report.get("checks", [])}
        return misses + self._check(report, status, inputs)


def _identity_argv(seed, size):
    return ["verify", "S", "--n", "3", "--window", str(size["window"])]


def _primefield_argv(seed, size):
    return _identity_argv(seed, size) + ["--field", "fp:%d" % random.Random(seed).choice(PRIMES)]


def _splits_argv(seed, size):
    return ["report", "--xwindow", str(size["xwindow"])]


def _identity_check(report, status, inputs):
    misses = []
    if status.get("filippov_jacobi") != "pass":
        misses.append("filippov_jacobi is %r, want pass" % status.get("filippov_jacobi"))
    if status.get("pair_admissible") != "not_decided":
        misses.append("pair_admissible is %r, want not_decided"
                      % status.get("pair_admissible"))
    return misses


def _splits_check(report, status, inputs):
    xwindow = SIZES[inputs["size"]]["xwindow"]
    want = {label: ("pass", dims) for label, dims in SPLITS[xwindow].items()}
    label, dims = UNASSERTED[xwindow]
    want[label] = ("not_decided", dims)
    misses = []
    if len(status) != len(want):
        misses.append("%d split records, want %d" % (len(status), len(want)))
    details = {r["name"]: r.get("detail", "") for r in report.get("checks", [])}
    for label, (verdict, dims) in sorted(want.items()):
        name = "split_" + label
        if status.get(name) != verdict:
            misses.append("%s is %r, want %s" % (name, status.get(name), verdict))
        m = WINDOW_RE.search(details.get(name, ""))
        got = (int(m.group(1)), int(m.group(2))) if m else None
        if got != dims:
            misses.append("%s window/derived dims %r, want %r" % (name, got, dims))
    return misses


class GenerationWorkload:
    """The README quick-start pipeline on O(n) with a seeded diagonal form:
    the records ``verify O`` computes, minus the exhaustive identity check."""

    name = "generation_o5"

    def make_inputs(self, seed, size):
        n = SIZES[size]["n"]
        rng = random.Random(seed)
        # every magnitude once, so the form always has non-unit entries
        mags = rng.sample(FORM_MAGNITUDES, len(FORM_MAGNITUDES))
        mags += [rng.choice(FORM_MAGNITUDES) for _ in range(n + 1 - len(mags))]
        diag = [m * rng.choice((1, -1)) for m in mags[:n + 1]]
        form = [[QQ.scalar(diag[i] if i == j else 0) for j in range(n + 1)]
                for i in range(n + 1)]
        return {"n": n, "form": form, "diag": diag, "seed": seed, "size": size}

    def run(self, inputs, outdir):
        n = inputs["n"]
        cap = n + 1
        alg = catalog.algebra_O(n, QQ, form=inputs["form"])
        fj = nlie.check_filippov(alg, mode="sorted")
        mm = multilinear.bracket_to_symmetric(alg.space, alg.arity, alg.bracket_parity,
                                              alg.bracket_keys)
        mu = universal.WElement.from_map(mm)
        adm = liegen.check_admissible(mu.space, mu, cap=cap)
        trunc = liegen.check_truncation(mu.space, mu, cap=cap)
        rel = liegen.check_mu_relations(mu.space, mu)
        return {"filippov": fj.ok, "graded_dims": adm.graded_dims,
                "admissible": adm.admissible, "truncation": trunc.ok,
                "relations": rel.ok}

    def check(self, outcome, inputs):
        n = inputs["n"]
        # L_d of the generated algebra is Lambda^(d+2) of the (n+1)-dim space
        want_dims = {d: math.comb(n + 1, d + 2) for d in range(-1, n)}
        misses = []
        if outcome["graded_dims"] != want_dims:
            misses.append("graded dims %r, want %r" % (outcome["graded_dims"], want_dims))
        for key in ("filippov", "admissible", "truncation", "relations"):
            if outcome[key] is not True:
                misses.append("%s is %r, want True" % (key, outcome[key]))
        return misses


WORKLOADS = {
    "identity_window": CommandWorkload("identity_window", _identity_argv, _identity_check),
    "identity_primefield": CommandWorkload("identity_primefield", _primefield_argv,
                                           _identity_check),
    "generation_o5": GenerationWorkload(),
    "splits": CommandWorkload("splits", _splits_argv, _splits_check),
}
