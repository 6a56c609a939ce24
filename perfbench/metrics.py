"""Metric definitions: the end-to-end set, and the per-layer set read from
a traced invocation.  ``BENCHMARK.json`` lists the same names; the
self-test checks that the two agree.

Each per-layer metric names the layer it measures and the span whose
calls decide whether the layer ran at all.  ``SHOULD_MOVE`` maps each
layer to the workloads whose ``verdict_s`` a change to that layer should
move; on those the layer must have run, so a layer that silently drops
out of its own workload fails the traced run instead of reading 0.
"""

END_TO_END = [
    # name, unit, better
    ("verdict_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

SHOULD_MOVE = {
    "nlie": ["identity_window", "identity_primefield"],
    "catalog": ["identity_window", "identity_primefield"],
    "universal": ["generation_o5"],
    "liegen": ["generation_o5"],
    "linalg": ["splits", "generation_o5"],
    "polysuper": ["splits"],
    "realizations": ["splits"],
    "reports": [],
}


def _calls(span):
    return lambda t: t.count(span)


def _self(*spans):
    return lambda t: sum(t.self_time(s) for s in spans)


def _counter(name):
    return lambda t: t.counters[name]


def _share(num, den):
    def value(t):
        d = den(t)
        return num(t) / d if d else 0.0
    return value


def _generation_brackets(t):
    """w_bracket calls made directly by the closure loop."""
    return t.edge("liegen.generate_subalgebra", "universal.w_bracket")


PER_LAYER = [
    # name, unit, better, layer, span that must have run, value from a Tracer
    ("nlie.check_filippov.self_s", "s", "lower", "nlie", "nlie.check_filippov",
     _self("nlie.check_filippov")),
    ("nlie.instances", "count", "lower", "nlie", "nlie.check_filippov",
     _counter("nlie.instances")),
    ("catalog.bracket_keys.calls", "count", "lower", "catalog", "catalog.bracket_keys",
     _calls("catalog.bracket_keys")),
    ("catalog.bracket_keys.self_s", "s", "lower", "catalog", "catalog.bracket_keys",
     _self("catalog.bracket_keys")),
    ("catalog.raw_bracket.calls", "count", "lower", "catalog", "catalog.raw_bracket",
     _calls("catalog.raw_bracket")),
    # share of bracket_keys calls answered without computing a raw bracket
    ("catalog.bracket_cache_hit_ratio", "ratio", "higher", "catalog", "catalog.bracket_keys",
     _share(lambda t: t.count("catalog.bracket_keys") - t.count("catalog.raw_bracket"),
            _calls("catalog.bracket_keys"))),
    ("universal.box.calls", "count", "lower", "universal", "universal.box",
     _calls("universal.box")),
    ("universal.box.self_s", "s", "lower", "universal", "universal.box",
     _self("universal.box")),
    ("universal.w_bracket.calls", "count", "lower", "universal", "universal.w_bracket",
     _calls("universal.w_bracket")),
    # share of brackets that came out zero: work that adds nothing
    ("universal.w_bracket.zero_ratio", "ratio", "lower", "universal", "universal.w_bracket",
     _share(_counter("universal.w_bracket.zero"), _calls("universal.w_bracket"))),
    ("universal.is_transitive.self_s", "s", "lower", "universal", "universal.is_transitive",
     _self("universal.is_transitive")),
    ("liegen.generate_subalgebra.calls", "count", "lower", "liegen",
     "liegen.generate_subalgebra", _calls("liegen.generate_subalgebra")),
    ("liegen.generate_subalgebra.self_s", "s", "lower", "liegen",
     "liegen.generate_subalgebra", _self("liegen.generate_subalgebra")),
    ("liegen.generation.rounds", "count", "lower", "liegen", "liegen.generate_subalgebra",
     _counter("liegen.generation.rounds")),
    ("liegen.generation.brackets", "count", "lower", "liegen", "liegen.generate_subalgebra",
     _generation_brackets),
    # share of those brackets that grew the subalgebra
    ("liegen.generation.grew_ratio", "ratio", "higher", "liegen", "liegen.generate_subalgebra",
     _share(_counter("liegen.generation.grew"), _generation_brackets)),
    ("liegen.check_admissible.self_s", "s", "lower", "liegen", "liegen.check_admissible",
     _self("liegen.check_admissible")),
    ("liegen.check_truncation.self_s", "s", "lower", "liegen", "liegen.check_truncation",
     _self("liegen.check_truncation")),
    ("liegen.check_mu_relations.self_s", "s", "lower", "liegen", "liegen.check_mu_relations",
     _self("liegen.check_mu_relations")),
    ("liegen.check_irreducible.self_s", "s", "lower", "liegen", "liegen.check_irreducible",
     _self("liegen.check_irreducible")),
    ("linalg.span_insert.calls", "count", "lower", "linalg", "linalg.span_insert",
     _calls("linalg.span_insert")),
    ("linalg.span_insert.grew_ratio", "ratio", "higher", "linalg", "linalg.span_insert",
     _share(_counter("linalg.span_insert.grew"), _calls("linalg.span_insert"))),
    ("linalg.span_reduce.calls", "count", "lower", "linalg", "linalg.span_reduce",
     _calls("linalg.span_reduce")),
    ("linalg.span_reduce.self_s", "s", "lower", "linalg", "linalg.span_reduce",
     _self("linalg.span_reduce")),
    ("linalg.nullspace.calls", "count", "lower", "linalg", "linalg.nullspace",
     _calls("linalg.nullspace")),
    ("linalg.nullspace.self_s", "s", "lower", "linalg", "linalg.nullspace",
     _self("linalg.nullspace")),
    ("polysuper.mul.calls", "count", "lower", "polysuper", "polysuper.mul",
     _calls("polysuper.mul")),
    ("polysuper.mul.self_s", "s", "lower", "polysuper", "polysuper.mul",
     _self("polysuper.mul")),
    ("polysuper.add.calls", "count", "lower", "polysuper", "polysuper.add",
     _calls("polysuper.add")),
    ("polysuper.deriv.self_s", "s", "lower", "polysuper", "polysuper.dx",
     _self("polysuper.dx", "polysuper.dxi")),
    ("realizations.carrier_bracket.calls", "count", "lower", "realizations",
     "realizations.carrier_bracket", _calls("realizations.carrier_bracket")),
    ("realizations.carrier_bracket.self_s", "s", "lower", "realizations",
     "realizations.carrier_bracket", _self("realizations.carrier_bracket")),
    ("realizations.window_elements.self_s", "s", "lower", "realizations",
     "realizations.window_elements", _self("realizations.window_elements")),
    ("realizations.check_split.self_s", "s", "lower", "realizations",
     "realizations.check_split", _self("realizations.check_split")),
    ("reports.render_s", "s", "lower", "reports", "reports.render",
     _self("reports.render")),
]

def per_layer(tracer, workload):
    """Per-layer values of one traced invocation, and the names of the
    metrics whose span never ran.  Raises ValueError when a layer that
    should move this workload did not run."""
    values, absent, missing = {}, [], []
    for name, unit, _, layer, base, value in PER_LAYER:
        values[name] = {"value": value(tracer), "unit": unit}
        if tracer.count(base) == 0:
            absent.append(name)
            if workload in SHOULD_MOVE[layer]:
                missing.append(name)
    if missing:
        raise ValueError("layer spans never ran on %s: %s" % (workload, ", ".join(missing)))
    return values, absent
