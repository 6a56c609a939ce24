"""Span tracer that wraps nlielab's layer functions from outside the program.

The program has no spans or counters of its own yet, so the traced run
replaces each listed layer function with a wrapper, in every loaded
namespace that holds it (``from .universal import w_bracket`` in
``liegen`` makes a second reference that must be patched too).  A
listed function that no longer exists raises ``TracerError``: a rename
must break the benchmark, not silently turn a layer metric into 0.

Each call becomes one span (name, start, end, parent span, invocation
id), kept in flat arrays and written out once when the run ends.  Self
time is a span's duration minus the durations of its direct children.
"""

import gzip
import json
import sys
import time
from array import array

# span name -> (module, qualified attributes wrapped under that name)
TARGETS = {
    "nlie.check_filippov": ("nlielab.nlie", ["check_filippov"]),
    "catalog.bracket_keys": ("nlielab.catalog", ["PolyNAryAlgebra.bracket_keys"]),
    "catalog.raw_bracket": ("nlielab.catalog", [
        "JacobianNAry.raw_bracket", "BorderedNAry.raw_bracket",
        "TaggedNAry.raw_bracket", "GeneralizedJacobianNAry.raw_bracket"]),
    "universal.box": ("nlielab.universal", ["box"]),
    "universal.w_bracket": ("nlielab.universal", ["w_bracket"]),
    "universal.is_transitive": ("nlielab.universal", ["is_transitive"]),
    "liegen.generate_subalgebra": ("nlielab.liegen", ["generate_subalgebra"]),
    "liegen.check_admissible": ("nlielab.liegen", ["check_admissible"]),
    "liegen.check_truncation": ("nlielab.liegen", ["check_truncation"]),
    "liegen.check_mu_relations": ("nlielab.liegen", ["check_mu_relations"]),
    "liegen.check_irreducible": ("nlielab.liegen", ["check_irreducible"]),
    "linalg.span_insert": ("nlielab.linalg", ["Span.insert"]),
    "linalg.span_reduce": ("nlielab.linalg", ["Span.reduce"]),
    "linalg.nullspace": ("nlielab.linalg", ["nullspace"]),
    "polysuper.mul": ("nlielab.polysuper", ["SuperPoly.__mul__", "SuperPoly.__rmul__"]),
    "polysuper.add": ("nlielab.polysuper", ["SuperPoly.__add__"]),
    "polysuper.dx": ("nlielab.polysuper", ["SuperPoly.dx"]),
    "polysuper.dxi": ("nlielab.polysuper", ["SuperPoly.dxi"]),
    "realizations.carrier_bracket": ("nlielab.realizations", [
        "PoissonRealization.bracket", "ButtinRealization.bracket",
        "ContactRealization.bracket", "VectorFieldRealization.bracket"]),
    "realizations.window_elements": ("nlielab.realizations", [
        "PoissonRealization.window_elements", "ButtinRealization.window_elements",
        "ContactRealization.window_elements", "VectorFieldRealization.window_elements"]),
    "realizations.check_split": ("nlielab.realizations", ["check_split"]),
    "reports.render": ("nlielab.reports", ["Report.to_text", "Report.to_json"]),
}

SPAN_NAMES = list(TARGETS)
COLUMNS = ["names", "starts", "ends", "parents", "invocations"]


def _instances(counters, report):
    counters["nlie.instances"] += report.instances


def _generation(counters, result):
    rounds = result[1].rounds  # dims after seeding, then after each round
    counters["liegen.generation.rounds"] += len(rounds) - 1
    counters["liegen.generation.grew"] += (sum(rounds[-1].values())
                                           - sum(rounds[0].values()))


def _zero_bracket(counters, w):
    if w.is_zero():
        counters["universal.w_bracket.zero"] += 1


def _span_grew(counters, grew):
    if grew:
        counters["linalg.span_insert.grew"] += 1


# Work counts read from return values, beside the span counts.
ON_RETURN = {
    "nlie.check_filippov": _instances,
    "liegen.generate_subalgebra": _generation,
    "universal.w_bracket": _zero_bracket,
    "linalg.span_insert": _span_grew,
}
COUNTERS = ["nlie.instances", "liegen.generation.rounds", "liegen.generation.grew",
            "universal.w_bracket.zero", "linalg.span_insert.grew"]

# Layers that have no span, and why; printed with every traced result.
UNTRACED = {
    "fields": "no span: wrapping Fraction/ModP operators would swamp the run; "
              "read its share as the gap in nlie.check_filippov.self_s between "
              "identity_window and identity_primefield",
    "derivations": "unmeasured: no CLI path runs it",
    "charp": "unmeasured: finishes in under 10 ms",
}


class TracerError(RuntimeError):
    pass


def _resolve(modname, qualname):
    module = sys.modules.get(modname)
    if module is None:
        raise TracerError("layer module %s is not imported" % modname)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TracerError("%s.%s does not exist" % (modname, qualname))
    # read the class's own attribute: an inherited one would wrap the base twice
    attrs = vars(owner)
    if parts[-1] not in attrs:
        raise TracerError("%s.%s does not exist" % (modname, qualname))
    return owner, parts[-1], attrs[parts[-1]]


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` bracket
    one traced invocation and must be paired."""

    def __init__(self):
        self.names = array("H")
        self.parents = array("q")
        self.invocations = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.calls = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        # calls by direct parent: edges[parent name][child name]
        self.edges = [[0] * len(SPAN_NAMES) for _ in SPAN_NAMES]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.invocation = 0
        self._stack = []
        self._child_ns = [0]
        self._patches = []

    # -- installation -------------------------------------------------

    def install(self):
        if self._patches:
            raise TracerError("tracer already installed")
        try:
            self._install()
        except TracerError:
            self.uninstall()
            raise

    def _install(self):
        for idx, name in enumerate(SPAN_NAMES):
            modname, qualnames = TARGETS[name]
            for qualname in qualnames:
                owner, attr, original = _resolve(modname, qualname)
                wrapper = self._wrap(idx, name, original)
                self._patch(owner, attr, original, wrapper)
                if isinstance(owner, type):
                    continue
                # plain functions: also replace every imported reference
                for mod in list(sys.modules.values()):
                    try:
                        namespace = vars(mod)
                    except TypeError:
                        continue
                    if mod is owner:
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._stack:
            raise TracerError("spans left open: %d" % len(self._stack))

    # -- the wrapper --------------------------------------------------

    def _wrap(self, idx, name, fn):
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack
        child_ns = self._child_ns
        names, parents, invs = self.names, self.parents, self.invocations
        starts, ends = self.starts, self.ends
        calls, self_ns, edges = self.calls, self.self_ns, self.edges
        on_return = ON_RETURN.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            sid = len(starts)
            if stack:
                parent = stack[-1]
                edges[names[parent]][idx] += 1
            else:
                parent = -1
            names.append(idx)
            parents.append(parent)
            invs.append(tracer.invocation)
            ends.append(0)
            stack.append(sid)
            child_ns.append(0)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[sid] = end
                stack.pop()
                dur = end - start
                self_ns[idx] += dur - child_ns.pop()
                child_ns[-1] += dur
                calls[idx] += 1
            if on_return is not None:
                on_return(counters, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results ------------------------------------------------------

    def count(self, name):
        return self.calls[SPAN_NAMES.index(name)]

    def self_time(self, name):
        """Seconds inside the named spans, minus their child spans."""
        return self.self_ns[SPAN_NAMES.index(name)] / 1e9

    def edge(self, parent, child):
        return self.edges[SPAN_NAMES.index(parent)][SPAN_NAMES.index(child)]

    def write(self, path):
        """Write every span, gzip-compressed: one JSON header line, then the
        raw bytes of each column array in the order the header lists."""
        header = {"names": SPAN_NAMES, "spans": len(self.starts),
                  "byteorder": sys.byteorder, "clock": "perf_counter_ns",
                  "columns": [[col, getattr(self, col).typecode] for col in COLUMNS]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in COLUMNS:
                getattr(self, col).tofile(fh)


def read_spans(path):
    """Read a file written by ``Tracer.write``: (header, {column: array})."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for col, code in header["columns"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["spans"]))
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            columns[col] = arr
    return header, columns
