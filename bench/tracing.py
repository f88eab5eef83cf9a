"""Outside-in tracing of symvar: timing wrappers on the modules' attributes.

The wrappers live here, not in the package.  `install` replaces each traced
function on every ``symvar`` module that holds it, including the modules that
imported it by name (``symvar.equations.vanishing_ideal``,
``symvar.variety.enumerate_end`` ...), so calls across modules and calls by
global name inside a module both pass through a wrapper.

Each call records a span ``(name, start_ns, end_ns, parent, op_id)`` in
memory; a span's self time is its duration minus the time of the spans it
encloses.  Work sizes are read from arguments and results, so they repeat
exactly between two runs on the same inputs.
"""

import functools
import json
import math
import sys
import time


def _min_excluded_counts(args, result):
    lam = args[0]
    rows, cols = lam.length + 1, lam.finite_weight + 1
    # partitions in a rows x cols box, less the empty one
    return {"box_size": math.comb(rows + cols, rows) - 1, "antichain_size": len(result)}


def _enumerate_end_counts(args, result):
    n = args[0].length
    return {"maps": len(result), "candidates": n ** n}


def _vanishing_ideal_counts(args, result):
    return {"points_in": len(set(args[0])), "generators_out": len(result)}


def _vanishing_ideal_maxima(args, result):
    return {"max_degree": max((g.total_degree() for g in result), default=0)}


def _points_key(args):
    return frozenset(tuple(p) for p in args[0])


# (module, attribute, layer, counts(args, result), maxima(args, result), key(args))
TARGETS = [
    ("symvar.partitions", "preceq", "partitions.preceq", None, None, None),
    ("symvar.partitions", "min_excluded", "partitions.min_excluded",
     _min_excluded_counts, None, None),
    ("symvar.corr", "enumerate_end", "corr.enumerate_end", _enumerate_end_counts, None, None),
    ("symvar.corr", "enumerate_good", "corr.enumerate_good",
     lambda a, r: {"corrs": len(r)}, None, lambda a: (a[0], a[1])),
    ("symvar.variety", "end_closure", "variety.end_closure",
     lambda a, r: {"points_out": len(r)}, None, lambda a: (a[0], a[1])),
    ("symvar.variety", "gamma_at", "variety.slice", lambda a, r: {"points_out": len(r)}, None, None),
    ("symvar.variety", "_gamma_points", "variety.slice",
     lambda a, r: {"points_out": len(r)}, None, None),
    ("symvar.variety", "theta_member", "variety.theta_member", None, None, None),
    ("symvar.variety", "contains", "variety.contains", None, None, None),
    ("symvar.poly", "vanishing_ideal", "poly.vanishing_ideal",
     _vanishing_ideal_counts, _vanishing_ideal_maxima, _points_key),
    ("symvar.equations", "i_lambda_z", "equations.i_lambda_z",
     lambda a, r: {"generators": len(r.generators)}, None, None),
    ("symvar.equations", "i_lambda", "equations.i_lambda", None, None, lambda a: a[0]),
    ("symvar.equations", "member_by_equations", "equations.member_by_equations",
     None, None, None),
]

LAYERS = sorted({t[2] for t in TARGETS})


class Tracer:
    """Spans and per-layer totals of one process."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []  # [span index, ns covered by child spans]
        self._depth = {}
        self._seen = {}
        self.totals = {
            name: {"calls": 0, "self_ns": 0, "repeats": 0, "counts": {}, "maxima": {}}
            for name in LAYERS
        }

    def wrap(self, name, fn, counts=None, maxima=None, key=None):
        totals = self.totals[name]
        seen = self._seen.setdefault(name, set())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a span inside a span of the same layer (gamma_at calling
            # _gamma_points) adds self time but is not a separate call
            outer = not self._depth.get(name)
            frame = [len(self.spans), 0]
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append(frame)
            self._depth[name] = self._depth.get(name, 0) + 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._depth[name] -= 1
                self._stack.pop()
                self.spans[frame[0]] = (name, start, end, parent, self.op_id)
                totals["self_ns"] += end - start - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                if outer:
                    totals["calls"] += 1
            if outer:
                if key is not None:
                    k = key(args)
                    if k in seen:
                        totals["repeats"] += 1
                    else:
                        seen.add(k)
                if counts is not None:
                    acc = totals["counts"]
                    for c, v in counts(args, result).items():
                        acc[c] = acc.get(c, 0) + v
                if maxima is not None:
                    acc = totals["maxima"]
                    for c, v in maxima(args, result).items():
                        acc[c] = max(acc.get(c, 0), v)
            return result

        return traced

    def dump(self, path, **header):
        """Write a header with the totals, then every span, one JSON object
        per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, totals=self.totals)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer):
    """Replace every traced function on every loaded symvar module; return
    a function that puts the originals back."""
    import symvar.cli  # noqa: F401  (loads every module that imports a target)

    modules = [m for n, m in sys.modules.items() if n == "symvar" or n.startswith("symvar.")]
    replaced = []
    for modname, attr, name, counts, maxima, key in TARGETS:
        orig = getattr(sys.modules[modname], attr)
        traced = tracer.wrap(name, orig, counts, maxima, key)
        for module in modules:
            for k, v in list(vars(module).items()):
                if v is orig:
                    setattr(module, k, traced)
                    replaced.append((module, k, orig))

    def restore():
        for module, k, orig in replaced:
            setattr(module, k, orig)

    return restore


def merge_totals(into, other):
    """Add the totals of another process (a CLI child) into `into`."""
    for name, t in other.items():
        acc = into[name]
        acc["calls"] += t["calls"]
        acc["self_ns"] += t["self_ns"]
        acc["repeats"] += t["repeats"]
        for c, v in t["counts"].items():
            acc["counts"][c] = acc["counts"].get(c, 0) + v
        for c, v in t["maxima"].items():
            acc["maxima"][c] = max(acc["maxima"].get(c, 0), v)


def layer_metrics(totals):
    """Flatten the totals into the benchmark's per-layer metric names."""
    out = {}
    for name, t in totals.items():
        calls = t["calls"]
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = t["self_ns"] / 1e9
        for c, v in list(t["counts"].items()) + list(t["maxima"].items()):
            out[f"{name}.{c}"] = v
        out[f"{name}.repeat_ratio"] = t["repeats"] / calls if calls else 0.0
    c = totals["partitions.min_excluded"]["counts"]
    out["partitions.min_excluded.yield"] = (
        c["antichain_size"] / c["box_size"] if c.get("box_size") else 0.0
    )
    c = totals["corr.enumerate_end"]["counts"]
    out["corr.enumerate_end.yield"] = c["maps"] / c["candidates"] if c.get("candidates") else 0.0
    return out
