"""Traced runs: spans and counts around periodlab's public functions.

``install`` replaces module and class attributes with wrappers for the
life of the process; nothing in ``src/`` changes.  Each span keeps its
name, start, end, parent and the scope it ran in ("checks" for the
workload's own set-up and checks, "readme" for the in-process pass over
the README commands).  Self time is a span's duration minus the time its
child spans cover.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from time import perf_counter_ns

SCOPES = ("checks", "readme")

# (per-layer metric, unit, how it is derived).  "median_ms" is the median
# duration of one call; "calls" and "self_ms" are per check of the scope;
# "count" is a counter per check; "ratio" divides two counters.
LAYER_METRICS = [
    ("weylkostant.distinguished_weyl_ms", "ms", ("median_ms", "weylkostant.distinguished_weyl")),
    ("weylkostant.make_line.calls", "count", ("calls", "weylkostant.make_line")),
    ("weylkostant.make_line.self_ms", "ms", ("self_ms", "weylkostant.make_line")),
    ("weylkostant.scan.candidates", "count", ("count", "weylkostant.scan.candidates")),
    ("weylkostant.scan.match_ratio", "ratio",
     ("ratio", "weylkostant.scan.matches", "weylkostant.scan.candidates")),
    ("quadrature.halfline.calls", "count", ("calls", "quadrature.halfline")),
    ("quadrature.halfline.self_ms", "ms", ("self_ms", "quadrature.halfline")),
    ("quadrature.integrand.evals", "count", ("count", "quadrature.integrand.evals")),
    ("quadrature.gk.calls", "count", ("count", "quadrature.gk.calls")),
    ("quadrature.fallback.calls", "count", ("count", "quadrature.fallback.calls")),
    ("quadrature.fallback_ratio", "ratio",
     ("ratio", "quadrature.fallback.calls", "quadrature.halfline")),
    ("intertwine.arch_intertwining_ms", "ms", ("median_ms", "intertwine.arch_intertwining")),
    ("cyclotomic.Cyc.mul.calls", "count", ("calls", "cyclotomic.Cyc.mul")),
    ("cyclotomic.Cyc.mul.self_ms", "ms", ("self_ms", "cyclotomic.Cyc.mul")),
    ("cyclotomic.Cyc.inverse.calls", "count", ("calls", "cyclotomic.Cyc.inverse")),
    ("cyclotomic.Cyc.inverse.self_ms", "ms", ("self_ms", "cyclotomic.Cyc.inverse")),
    ("laurent.XPoly.gcd.calls", "count", ("calls", "laurent.XPoly.gcd")),
    ("laurent.XPoly.gcd.self_ms", "ms", ("self_ms", "laurent.XPoly.gcd")),
    ("intertwine.nonarch_intertwining_ms", "ms", ("median_ms", "intertwine.nonarch_intertwining")),
    ("lfactors.unramified_lratio_ms", "ms", ("median_ms", "lfactors.unramified_lratio")),
    ("cli.main_ms", "ms", ("median_ms", "cli.main")),
    ("cmfield.build_field_ms", "ms", ("median_ms", "cmfield.build_field")),
    ("cmfield.check_discriminant_identity_ms", "ms",
     ("median_ms", "cmfield.check_discriminant_identity")),
    ("lfactors.gauss_sum_ms", "ms", ("median_ms", "lfactors.gauss_sum")),
    ("charpeel.balanced_at_oracle_ms", "ms", ("median_ms", "charpeel.balanced_at_oracle")),
]

# Fresh-interpreter import times, measured by ``import_times``.
IMPORT_METRICS = [
    ("cli.import_s", "periodlab.cli"),
    ("cli.import.scipy_s", "scipy.integrate"),
    ("cli.import.mpmath_s", "mpmath"),
]


class Tracer:
    """Spans in parallel arrays (index = span id) and counters per scope."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.scope_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = {scope: {} for scope in SCOPES}
        self.checks = {scope: 0 for scope in SCOPES}
        self.scope = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.scope_id.append(self.scope)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, by: int = 1) -> None:
        counts = self.counts[SCOPES[self.scope]]
        counts[name] = counts.get(name, 0) + by

    def set_scope(self, scope: str) -> None:
        self.scope = SCOPES.index(scope)

    def check_done(self) -> None:
        self.checks[SCOPES[self.scope]] += 1

    # -- derived figures -----------------------------------------------------

    def _per_name(self):
        """Durations and self times (ns) per (scope, name)."""
        child = [0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        durations: dict[tuple[str, str], list[int]] = {}
        self_ns: dict[tuple[str, str], int] = {}
        for i in range(len(self.start)):
            key = (SCOPES[self.scope_id[i]], self.names[self.name_id[i]])
            dur = self.end[i] - self.start[i]
            durations.setdefault(key, []).append(dur)
            self_ns[key] = self_ns.get(key, 0) + dur - child[i]
        return durations, self_ns

    def layer_metrics(self) -> tuple[dict, dict]:
        """Every per-layer metric, from the workload's own scope where its
        layer ran there, else from the README pass; and the scope used."""
        durations, self_ns = self._per_name()

        def value(scope, how):
            kind, name = how[0], how[1]
            checks = max(self.checks[scope], 1)
            counts = self.counts[scope]
            spans = durations.get((scope, name), [])
            if kind == "median_ms":
                return statistics.median(spans) / 1e6 if spans else None
            if kind == "calls":
                return len(spans) / checks if spans else None
            if kind == "self_ms":
                return self_ns[(scope, name)] / 1e6 / checks if spans else None
            if kind == "count":
                return counts[name] / checks if name in counts else None
            # ratio: numerator counter over a counter or a span count
            den = counts.get(how[2]) or len(durations.get((scope, how[2]), []))
            return counts.get(name, 0) / den if den else None

        metrics, sources = {}, {}
        for metric, unit, how in LAYER_METRICS:
            for scope in SCOPES:
                v = value(scope, how)
                if v is not None:
                    break
            else:
                v, scope = 0.0, "none"
            metrics[metric] = {"value": v, "unit": unit}
            sources[metric] = scope
        return metrics, sources

    def write(self, path) -> None:
        """All spans as gzip'd JSON lines: id, parent, name, scope, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([
                    i, self.parent[i], self.names[self.name_id[i]],
                    SCOPES[self.scope_id[i]], self.start[i], self.end[i],
                ]) + "\n")
            fh.write(json.dumps({"counts": self.counts, "checks": self.checks}) + "\n")


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def install() -> Tracer:
    """Import periodlab and wrap the traced functions for this process."""
    from periodlab import charpeel, cli, cmfield, cyclotomic, intertwine, laurent
    from periodlab import lfactors, quadrature, weylkostant

    tracer = Tracer()

    def patch(owners, attr, wrapper_of):
        original = getattr(owners[0], attr)
        wrapped = wrapper_of(original)
        for owner in owners:
            setattr(owner, attr, wrapped)

    def spanned(owners, attr, name):
        patch(owners, attr, lambda fn: _spanned(tracer, name, fn))

    def scan(fn):
        def wrapper(*args, **kwargs):
            idx = tracer.open("weylkostant.distinguished_weyl")
            try:
                element, cert = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.count("weylkostant.scan.candidates", cert["scanned"])
            tracer.count("weylkostant.scan.matches", cert["matches"])
            return element, cert

        return wrapper

    def halfline(fn):
        def counted_integrand(f):
            def g(x):
                tracer.count("quadrature.integrand.evals")
                return f(x)

            return g

        def wrapper(f, *args, **kwargs):
            idx = tracer.open("quadrature.halfline")
            try:
                return fn(counted_integrand(f), *args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    patch([weylkostant], "distinguished_weyl", scan)
    spanned([weylkostant], "make_line", "weylkostant.make_line")
    patch([quadrature], "halfline_with_fallback", halfline)
    patch([quadrature], "quad", lambda fn: _counted(tracer, "quadrature.gk.calls", fn))
    patch([quadrature], "exp_sinh_halfline",
          lambda fn: _counted(tracer, "quadrature.fallback.calls", fn))
    spanned([intertwine], "arch_intertwining", "intertwine.arch_intertwining")
    spanned([intertwine], "nonarch_intertwining", "intertwine.nonarch_intertwining")
    spanned([lfactors, intertwine], "unramified_lratio", "lfactors.unramified_lratio")
    # __rmul__ is the same function as __mul__ on Cyc: wrap both names.
    spanned([cyclotomic.Cyc], "__mul__", "cyclotomic.Cyc.mul")
    spanned([cyclotomic.Cyc], "__rmul__", "cyclotomic.Cyc.mul")
    spanned([cyclotomic.Cyc], "inverse", "cyclotomic.Cyc.inverse")
    spanned([laurent.XPoly], "gcd", "laurent.XPoly.gcd")
    spanned([cmfield], "build_field", "cmfield.build_field")
    spanned([cmfield], "check_discriminant_identity", "cmfield.check_discriminant_identity")
    spanned([lfactors], "gauss_sum", "lfactors.gauss_sum")
    spanned([charpeel, cli], "balanced_at_oracle", "charpeel.balanced_at_oracle")
    spanned([cli], "main", "cli.main")
    return tracer
