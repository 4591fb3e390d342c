"""Spans around the calls into each seqquant layer, and their per-layer summary.

``Tracer.install`` replaces the public entry points of the seqquant modules
with timing wrappers, from outside the package: module functions are
replaced in every seqquant module that holds them (``seqtest`` and
``boundaries`` import names from other modules), methods and properties on
their classes.  Each call records a span (kind, start, end, parent span) in
flat in-memory arrays that are written out once at the end.

A call made while a span of the same kind is open records no span of its
own (``upper_quantile`` calling ``order_stat`` is one select), so the
inclusive time of a kind never counts the same interval twice.  Self time
is a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

LAYERS = ("cli", "confseq", "seqtest", "bandit", "boundaries", "empdist", "specfun")

KINDS = (
    "cli.main", "cli.row",
    "confseq.update", "confseq.query",
    "boundaries.radius", "boundaries.mixture", "boundaries.tune",
    "empdist.insert", "empdist.select", "empdist.rank", "empdist.scan",
    "seqtest.eval", "seqtest.ks", "seqtest.astar", "seqtest.sim",
    "specfun.betainc", "specfun.golden",
    "bandit.bai", "bandit.run", "bandit.sample",
)
KIND_ID = {k: i for i, k in enumerate(KINDS)}
KIND_LAYER = np.array([LAYERS.index(k.split(".")[0]) for k in KINDS])

# (module, function, span kind); methods add the class name.
FUNCTIONS = (
    ("boundaries", "stitched_radius", "boundaries.radius"),
    ("boundaries", "stitched_radius_simple", "boundaries.radius"),
    ("boundaries", "double_stitch_radius", "boundaries.radius"),
    ("boundaries", "beta_binomial_radius", "boundaries.radius"),
    ("boundaries", "one_sided_beta_binomial_radius", "boundaries.radius"),
    ("boundaries", "normal_mixture_radius", "boundaries.radius"),
    ("boundaries", "lil_radius", "boundaries.radius"),
    ("boundaries", "baseline_radius", "boundaries.radius"),
    ("boundaries", "beta_binomial_log_mixture", "boundaries.mixture"),
    ("boundaries", "one_sided_log_mixture", "boundaries.mixture"),
    ("boundaries", "tune_r", "boundaries.tune"),
    ("boundaries", "lil_C", "boundaries.tune"),
    ("seqtest", "global_null_result", "seqtest.eval"),
    ("seqtest", "global_null_pvalue", "seqtest.eval"),
    ("seqtest", "ab_vs_naive_benchmark", "seqtest.sim"),
    ("specfun", "log_betainc", "specfun.betainc"),
    ("specfun", "golden_section_min", "specfun.golden"),
    ("bandit", "bai_benchmark", "bandit.bai"),
    ("bandit", "qlucb_run", "bandit.run"),
)
METHODS = (
    ("cli", "Emitter", "row", "cli.row"),
    ("confseq", "FixedQuantileCS", "update", "confseq.update"),
    ("confseq", "CdfBand", "update", "confseq.update"),
    ("confseq", "FixedQuantileCS", "bounds", "confseq.query"),
    ("confseq", "FixedQuantileCS", "intersected_bounds", "confseq.query"),
    ("confseq", "FixedQuantileCS", "point_estimate", "confseq.query"),
    ("confseq", "CdfBand", "band", "confseq.query"),
    ("confseq", "CdfBand", "half_width", "confseq.query"),
    ("confseq", "CdfBand", "at", "confseq.query"),
    ("empdist", "OrderedMultiset", "insert", "empdist.insert"),
    ("empdist", "OrderedMultiset", "order_stat", "empdist.select"),
    ("empdist", "OrderedMultiset", "upper_quantile", "empdist.select"),
    ("empdist", "OrderedMultiset", "lower_quantile", "empdist.select"),
    ("empdist", "OrderedMultiset", "min", "empdist.select"),
    ("empdist", "OrderedMultiset", "max", "empdist.select"),
    ("empdist", "OrderedMultiset", "count_le", "empdist.rank"),
    ("empdist", "OrderedMultiset", "count_lt", "empdist.rank"),
    ("empdist", "OrderedMultiset", "cdf_at", "empdist.rank"),
    ("seqtest", "AbTestState", "two_sided", "seqtest.eval"),
    ("seqtest", "AbTestState", "one_sided", "seqtest.eval"),
    ("seqtest", "KsTestState", "evaluate", "seqtest.ks"),
    ("bandit", "ArmSpec", "sample", "bandit.sample"),
)
GENERATORS = (
    ("empdist", "OrderedMultiset", "items", "empdist.scan"),
    ("empdist", "OrderedMultiset", "items_between", "empdist.scan"),
)
PROPERTIES = (
    ("seqtest", "GEvaluator", "astar", "seqtest.astar"),
)

_END = object()


class Tracer:
    """Records spans in flat arrays; one instance per traced process."""

    def __init__(self):
        self.kind = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.scan: dict[int, float] = {}
        self.active = [0] * len(KINDS)
        self.counters = {"mixture_elems": 0, "betainc_elems": 0, "scan_items": 0,
                         "candidates": 0, "pulls": 0, "rounds": 0, "max_height": 0}

    def wrap(self, fn, kind: str, post=None):
        k = KIND_ID[kind]
        kinds, parents, starts, ends = self.kind, self.parent, self.start, self.end
        stack, active, clock = self.stack, self.active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[k]:
                return fn(*args, **kwargs)
            sid = len(kinds)
            kinds.append(k)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            active[k] = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[k] = 0
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def wrap_generator(self, fn, kind: str):
        """Times each resumption of the generator and counts the items it yields.

        A span per yielded item would cost more than the item, so resumptions
        are summed per enclosing span instead (``scan_parent``/``scan_time``):
        the sum is subtracted from that span's self time and is scan time.
        """
        k = KIND_ID[kind]
        eval_k = KIND_ID["seqtest.eval"]
        stack, active, clock, counters = self.stack, self.active, time.perf_counter, self.counters
        scan = self.scan

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if active[k]:
                    v = next(it, _END)
                else:
                    active[k] = 1
                    t0 = clock()
                    try:
                        v = next(it, _END)
                    finally:
                        t1 = clock()
                        active[k] = 0
                    parent = stack[-1]
                    scan[parent] = scan.get(parent, 0.0) + (t1 - t0)
                    if v is not _END:
                        counters["scan_items"] += 1
                        if active[eval_k]:
                            counters["candidates"] += 1
                if v is _END:
                    return
                yield v

        return wrapper

    def _count(self, name):
        counters = self.counters

        def post(args, result):
            counters[name] += int(np.size(result))

        return post

    def _run_post(self, args, result):
        self.counters["pulls"] += result.total_samples
        self.counters["rounds"] += result.rounds

    def _insert_post(self, args, result):
        h = args[0].height()
        if h > self.counters["max_height"]:
            self.counters["max_height"] = h

    def install(self, package) -> None:
        """Wrap the entry points of ``package`` (the imported seqquant)."""
        modules = [getattr(package, name) for name in
                   ("cli", "confseq", "seqtest", "bandit", "boundaries", "empdist", "specfun")]
        posts = {"beta_binomial_log_mixture": self._count("mixture_elems"),
                 "one_sided_log_mixture": self._count("mixture_elems"),
                 "log_betainc": self._count("betainc_elems"),
                 "qlucb_run": self._run_post}
        for mod_name, attr, kind in FUNCTIONS:
            original = getattr(getattr(package, mod_name), attr)
            wrapped = self.wrap(original, kind, posts.get(attr))
            for mod in modules + [package]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
        for mod_name, cls_name, attr, kind in METHODS:
            cls = getattr(getattr(package, mod_name), cls_name)
            post = self._insert_post if kind == "empdist.insert" else None
            setattr(cls, attr, self.wrap(cls.__dict__[attr], kind, post))
        for mod_name, cls_name, attr, kind in GENERATORS:
            cls = getattr(getattr(package, mod_name), cls_name)
            setattr(cls, attr, self.wrap_generator(cls.__dict__[attr], kind))
        for mod_name, cls_name, attr, kind in PROPERTIES:
            cls = getattr(getattr(package, mod_name), cls_name)
            prop = cls.__dict__[attr]
            setattr(cls, attr, property(self.wrap(prop.fget, kind)))

    def save(self, path) -> None:
        np.savez(
            path,
            kind=np.frombuffer(self.kind, dtype=np.int8),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            scan_parent=np.array(list(self.scan.keys()), dtype=np.int64),
            scan_time=np.array(list(self.scan.values()), dtype=np.float64),
        )


def summarize(path) -> dict:
    """Per-kind counts and inclusive times, and per-layer self times, of one spans file."""
    with np.load(path) as z:
        kind = z["kind"].astype(np.intp)
        parent = z["parent"].astype(np.intp)
        dur = z["end"] - z["start"]
        scan_parent = z["scan_parent"].astype(np.intp)
        scan_time = z["scan_time"]
    n = len(kind)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    scanned = scan_parent >= 0
    child += np.bincount(scan_parent[scanned], weights=scan_time[scanned], minlength=n)
    self_time = dur - child
    count = np.bincount(kind, minlength=len(KINDS))
    incl = np.bincount(kind, weights=dur, minlength=len(KINDS))
    incl[KIND_ID["empdist.scan"]] = scan_time.sum()
    layer_self = np.bincount(KIND_LAYER[kind], weights=self_time, minlength=len(LAYERS))
    layer_self[LAYERS.index("empdist")] += scan_time.sum()
    return {
        "spans": int(n),
        "count": {k: int(count[i]) for i, k in enumerate(KINDS)},
        "incl_s": {k: float(incl[i]) for i, k in enumerate(KINDS)},
        "self_s": {layer: float(layer_self[i]) for i, layer in enumerate(LAYERS)},
    }


def layer_metrics(summaries: list[dict], counters: list[dict]) -> dict:
    """The named per-layer metrics of one pass: sums over its invocations."""
    count = {k: sum(s["count"][k] for s in summaries) for k in KINDS}
    incl = {k: sum(s["incl_s"][k] for s in summaries) for k in KINDS}
    self_s = {layer: sum(s["self_s"][layer] for s in summaries) for layer in LAYERS}
    c = {name: sum(x[name] for x in counters) for name in counters[0] if name != "max_height"}
    # KS evaluations walk both samples' ECDFs; they are evaluations but not
    # candidate scans, so the candidate ratio is over the A/B evaluations only.
    ab_evals = count["seqtest.eval"]
    evals = ab_evals + count["seqtest.ks"]
    return {
        "cli.self_s": self_s["cli"],
        "cli.rows": count["cli.row"],
        "confseq.updates": count["confseq.update"],
        "confseq.self_s": self_s["confseq"],
        "boundaries.radius_calls": count["boundaries.radius"],
        "boundaries.radius_s": incl["boundaries.radius"],
        "boundaries.mixture_calls": count["boundaries.mixture"],
        "boundaries.mixture_elems": c["mixture_elems"],
        "boundaries.mixture_s": incl["boundaries.mixture"],
        "boundaries.tune_s": incl["boundaries.tune"],
        "boundaries.self_s": self_s["boundaries"],
        "empdist.inserts": count["empdist.insert"],
        "empdist.insert_s": incl["empdist.insert"],
        "empdist.selects": count["empdist.select"],
        "empdist.select_s": incl["empdist.select"],
        "empdist.rank_queries": count["empdist.rank"],
        "empdist.rank_s": incl["empdist.rank"],
        "empdist.scan_items": c["scan_items"],
        "empdist.scan_s": incl["empdist.scan"],
        "empdist.max_height": max(x["max_height"] for x in counters),
        "empdist.self_s": self_s["empdist"],
        "seqtest.evals": evals,
        "seqtest.self_s": self_s["seqtest"],
        "seqtest.astar_s": incl["seqtest.astar"],
        "seqtest.candidates_per_eval": c["candidates"] / ab_evals if ab_evals else 0.0,
        "seqtest.sim_s": incl["seqtest.sim"],
        "specfun.betainc_calls": count["specfun.betainc"],
        "specfun.betainc_elems": c["betainc_elems"],
        "specfun.betainc_s": incl["specfun.betainc"],
        "specfun.golden_calls": count["specfun.golden"],
        "specfun.golden_s": incl["specfun.golden"],
        "specfun.self_s": self_s["specfun"],
        "bandit.runs": count["bandit.run"],
        "bandit.pulls": c["pulls"],
        "bandit.rounds": c["rounds"],
        "bandit.self_s": self_s["bandit"],
        "bandit.sample_s": incl["bandit.sample"],
    }
