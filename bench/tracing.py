"""Traced runs: spans at spancount's layer boundaries, recorded from outside.

`Instrumentation` wraps the public functions of each layer, or, where a
layer has none, the module attribute one layer calls the next through.
A function imported into several modules is wrapped at every binding,
so calls through `from .partition import random_bisection` are seen too.
Nothing in the program changes; `restore` puts every original back.

Three kinds of wrapper:
- span: a frame that is also stored as a span (id, parent, name, start, end);
- frame: timed and nested like a span but only aggregated, for calls made
  thousands of times per command;
- count: only counted, keyed by the innermost open frame.

A frame's self time is its duration minus the time its child frames
cover, so the self times of all frames add up to the root frames' time.
Spans inside worker processes are not recorded: forked pool workers
restore the originals before they run a task.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import pickle
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Optional

SPAN, FRAME, COUNT = "span", "frame", "count"


class Tracer:
    """Open frames, stored spans and per-name totals of one traced run."""

    def __init__(self):
        self.stack: List[list] = []  # [name, start, child seconds, span id for children]
        self.spans: List[tuple] = []  # (id, parent id, name, start, end)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.exclusive: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # (counter, innermost frame) -> calls
        self.tally: Counter = Counter()  # outcomes read from return values
        self.payload_bytes: Dict[str, int] = {}  # command label -> pickled trial payload
        self.op: Optional[str] = None  # label of the command being run

    def enter(self, name: str, keep: bool) -> None:
        parent = self.stack[-1][3] if self.stack else -1
        sid = len(self.spans) if keep else parent
        if keep:
            self.spans.append(None)  # reserve the id; filled in by leave()
        self.stack.append([name, perf_counter(), 0.0, sid, keep, parent])

    def leave(self) -> None:
        end = perf_counter()
        name, start, child, sid, keep, parent = self.stack.pop()
        duration = end - start
        self.inclusive[name] += duration
        self.exclusive[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if keep:
            self.spans[sid] = (sid, parent, name, start, end)

    def hide(self, seconds: float) -> None:
        """Remove `seconds` of benchmark bookkeeping from every open frame."""
        for frame in self.stack:
            frame[1] += seconds

    def note_payload(self, payload) -> None:
        """Record the pickled size of the first trial payload of each command label."""
        if self.op is None or self.op in self.payload_bytes:
            return
        t0 = perf_counter()
        self.payload_bytes[self.op] = len(pickle.dumps(payload))
        self.hide(perf_counter() - t0)

    def count(self, name: str, frame: Optional[str] = None) -> int:
        return sum(v for (n, f), v in self.counts.items() if n == name and frame in (None, f))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _wrap(tracer: Tracer, fn, name: str, kind: str, before=None, after=None):
    if kind == COUNT:
        counts, stack = tracer.counts, tracer.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name, stack[-1][0] if stack else None] += 1
            return fn(*args, **kwargs)

        return counted

    keep = kind == SPAN

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        state = before(tracer, args) if before else None
        result = None
        tracer.enter(name, keep)
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.leave()
            if after:
                after(tracer, args, result, state)

    return timed


# -- outcome hooks: read counts from what a layer returns ----------------


def _bisection_events(tracer, args, result, state):
    if result is None:
        return
    trace = result[1]
    for level in trace.events + trace.refinements:
        for rec in level:
            tracer.tally["events_clamped" if rec.clamped else "events_substantive"] += 1


def _goodness(tracer, args, result, state):
    tracer.tally["goodness_checks"] += 1
    tracer.tally["goodness_passes"] += bool(result is not None and result.good)


def _clique_sweeps(tracer, args):
    return tracer.count("stitch.clique_sweep")


def _stitch_outcome(tracer, args, result, sweeps_before):
    tracer.tally["stitch_calls"] += 1
    tracer.tally["stitch_successes"] += result is not None
    # a power-cycle attempt samples one clique junction per block
    sweeps = tracer.count("stitch.clique_sweep") - sweeps_before
    tracer.tally["power_attempts"] += -(-sweeps // args[1].r)


class Instrumentation:
    """Wraps spancount's layer boundaries for one tracer; `restore` undoes it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[tuple] = []
        self.missing: List[str] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, name: str, kind: str, before=None, after=None):
        """Wrap module.attr at every spancount module that binds the same object."""
        home = sys.modules[f"spancount.{module}"]
        fn = getattr(home, attr, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = _wrap(self.tracer, fn, name, kind, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "spancount" or mod_name.startswith("spancount."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)

    def method(self, cls, attr: str, name: str, kind: str) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__name__}.{attr}")
        elif isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(_wrap(self.tracer, raw.__func__, name, kind)))
        else:
            self._set(cls, attr, _wrap(self.tracer, raw, name, kind))

    def install(self) -> None:
        from spancount import cli
        from spancount.hypergraphs import Hypergraph
        from spancount.paths import _Budget

        self.method(Hypergraph, "from_edge_list", "hypergraphs.load", SPAN)
        self.method(Hypergraph, "degree", "hypergraphs.degree", FRAME)
        self.method(Hypergraph, "has_edge", "hypergraphs.has_edge", COUNT)
        self.method(Hypergraph, "induced", "hypergraphs.induced", SPAN)
        self._index(Hypergraph)
        self.method(_Budget, "spend", "paths.node", COUNT)

        self.function("partition", "random_bisection", "partition.bisect", SPAN,
                      after=_bisection_events)
        self.function("partition", "check_good", "partition.goodness", SPAN, after=_goodness)
        self.function("partition", "estimate_good_probability", "partition.estimate", SPAN)

        self.function("stitch", "_solve_blocks", "stitch.attempt", COUNT)
        self.function("stitch", "_all_cliques", "paths.clique", SPAN)
        self.function("stitch", "_all_cliques", "stitch.clique_sweep", COUNT)
        for attr in ("stitch_cycle", "stitch_power_cycle"):
            self.function("stitch", attr, "stitch.stitch", SPAN,
                          before=_clique_sweeps, after=_stitch_outcome)

        self.function("paths", "clique_graph", "paths.clique", SPAN)
        self.function("paths", "_search_path", "paths.search", FRAME)
        self.function("paths", "_search_cycle", "paths.search", FRAME)
        self.function("paths", "enumerate_hamilton_ell_cycles", "paths.enumerate", SPAN)

        self.function("factors", "find_f_factor", "factors.search", SPAN)
        self.function("factors", "count_f_factors", "factors.search", SPAN)
        self.function("factors", "matching_zero_cycle_relation", "factors.relation", SPAN)

        self.function("absorb", "classify_set", "absorb.classify", SPAN)
        self.function("absorb", "can_absorb", "absorb.can_absorb", FRAME)

        self.function("bounds", "expected_random_count", "bounds.expected", SPAN)
        self.function("stitch", "lower_bound_count", "bounds.lower_bound", SPAN)

        self.function("cli", "emit_report", "cli.report", SPAN)
        trial = getattr(cli, "_stitch_trial", None)
        if trial is None:
            self.missing.append("cli._stitch_trial")
        else:
            self._set(cli, "_stitch_trial", self._observe_payload(trial))
        self._set(cli, "ProcessPoolExecutor", self._traced_pool(cli.ProcessPoolExecutor))

    def _index(self, cls) -> None:
        """Time the index build: a codegree-index call on a Hypergraph with no index yet."""
        build = cls.__dict__.get("_codegree_neighbours")
        if build is None or "_conbr" not in cls.__slots__:
            self.missing.append("Hypergraph._codegree_neighbours")
            return
        tracer = self.tracer

        @functools.wraps(build)
        def index(graph):
            if graph._conbr is not None:
                return build(graph)
            tracer.enter("hypergraphs.index", True)
            try:
                return build(graph)
            finally:
                tracer.leave()

        self._set(cls, "_codegree_neighbours", index)

    def _observe_payload(self, trial):
        tracer = self.tracer

        @functools.wraps(trial)
        def observed(payload):
            tracer.note_payload(payload)
            return trial(payload)

        return observed

    def _traced_pool(self, base):
        tracer, restore = self.tracer, self.restore
        forks = multiprocessing.get_context().get_start_method() == "fork"

        class TracedPool(base):
            """The program's process pool, with the parent's waits recorded."""

            def __init__(self, *args, **kwargs):
                if forks:
                    kwargs.setdefault("initializer", restore)
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                items = [list(it) for it in iterables]
                if items and items[0]:
                    tracer.note_payload(items[0][0])
                tracer.enter("cli.pool_wait", True)
                try:
                    return iter(list(super().map(fn, *items, **kwargs)))
                finally:
                    tracer.leave()

            def shutdown(self, *args, **kwargs):
                tracer.enter("cli.pool_wait", True)
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    tracer.leave()

        return TracedPool

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- per-layer metrics -----------------------------------------------------

# name: (unit, better, end-to-end metric it should move, workloads where it should)
PER_LAYER = {
    "hypergraphs.load_s": ("s", "lower", "op_s.p50", "stitch; not oracles"),
    "hypergraphs.index_s": ("s", "lower", "op_s.p50, peak_rss_mb", "stitch"),
    "hypergraphs.degree_calls": ("count", "lower", "ops_per_s", "stitch (p) >> other stitch slots; ~0 on oracles"),
    "hypergraphs.degree_s": ("s", "lower", "ops_per_s", "stitch (p) >> other stitch slots; ~0 on oracles"),
    "hypergraphs.has_edge_calls": ("count", "lower", "ops_per_s", "oracles, stitch (c)"),
    "hypergraphs.induced_calls": ("count", "lower", "ops_per_s", "stitch (c)"),
    "hypergraphs.induced_s": ("s", "lower", "ops_per_s", "stitch (c)"),
    "hypergraphs.self_s": ("s", "lower", "op_s.p50", "all"),
    "partition.bisect_s": ("s", "lower", "ops_per_s", "stitch (p) >> other stitch slots"),
    "partition.bisections": ("count", "lower", "ops_per_s", "stitch (p) >> other stitch slots"),
    "partition.events_substantive": ("count", "higher", "explains stitch (p) vs the other stitch slots", "stitch"),
    "partition.events_clamped": ("count", "lower", "explains stitch (p) vs the other stitch slots", "stitch"),
    "partition.goodness_s": ("s", "lower", "ops_per_s", "stitch (b), (p)"),
    "partition.goodness_pass_frac": ("ratio", "higher", "ops_per_s", "stitch (b), (p)"),
    "partition.self_s": ("s", "lower", "ops_per_s", "stitch"),
    "stitch.self_s": ("s", "lower", "ops_per_s", "stitch"),
    "stitch.calls": ("count", "lower", "ops_per_s", "stitch"),
    "stitch.success_frac": ("ratio", "higher", "ops_per_s, failed_frac", "stitch"),
    "stitch.failures": ("count", "lower", "ops_per_s, failed_frac", "stitch"),
    "stitch.junction_attempts": ("count", "lower", "ops_per_s", "stitch"),
    "paths.search_s": ("s", "lower", "ops_per_s", "oracles (absorb); ~0 on stitch"),
    "paths.search_calls": ("count", "lower", "ops_per_s", "oracles (absorb); ~0 on stitch"),
    "paths.search_nodes": ("count", "lower", "ops_per_s", "oracles (absorb); ~0 on stitch"),
    "paths.clique_s": ("s", "lower", "ops_per_s", "stitch (c)"),
    "paths.enumerate_s": ("s", "lower", "ops_per_s, peak_rss_mb", "oracles"),
    "paths.enumerate_calls": ("count", "lower", "ops_per_s, peak_rss_mb", "oracles"),
    "paths.self_s": ("s", "lower", "ops_per_s", "oracles, stitch (c)"),
    "factors.search_s": ("s", "lower", "ops_per_s", "oracles"),
    "factors.searches": ("count", "lower", "ops_per_s", "oracles"),
    "factors.self_s": ("s", "lower", "ops_per_s", "oracles"),
    "absorb.classify_s": ("s", "lower", "ops_per_s", "oracles"),
    "absorb.can_absorb_calls": ("count", "lower", "ops_per_s", "oracles"),
    "absorb.self_s": ("s", "lower", "ops_per_s", "oracles"),
    "bounds.self_s": ("s", "lower", "ops_per_s", "oracles (count --delta)"),
    "cli.report_s": ("s", "lower", "op_s.p50", "all (predicted small)"),
    "cli.self_s": ("s", "lower", "op_s.p50", "stitch (d)"),
    "cli.pool_wait_s": ("s", "lower", "ops_per_s", "stitch (d)"),
    "cli.command_s": ("s", "lower", "op_s.p50", "all (traced command time)"),
    "cli.payload_bytes.a": ("bytes", "lower", "ops_per_s (computed)", "stitch (a), (d)"),
    "cli.payload_bytes.b": ("bytes", "lower", "ops_per_s (computed)", "stitch (b)"),
}

LAYERS = ("hypergraphs", "partition", "stitch", "paths", "factors", "absorb", "bounds", "cli")


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    """Total self time of each layer's frames, in seconds."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in tracer.exclusive.items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


def layer_metrics(tracer: Tracer, commands: int) -> Dict[str, float]:
    """Every PER_LAYER metric; times and counts are means per command."""
    inc, calls, tally = tracer.inclusive, tracer.calls, tracer.tally
    selfs = layer_self_times(tracer)

    def per(x):
        return x / commands

    def frac(a, b):
        return a / b if b else 0.0

    stitch_calls = tally["stitch_calls"]
    values = {
        "hypergraphs.load_s": per(inc["hypergraphs.load"]),
        "hypergraphs.index_s": per(inc["hypergraphs.index"]),
        "hypergraphs.degree_calls": per(calls["hypergraphs.degree"]),
        "hypergraphs.degree_s": per(inc["hypergraphs.degree"]),
        "hypergraphs.has_edge_calls": per(tracer.count("hypergraphs.has_edge")),
        "hypergraphs.induced_calls": per(calls["hypergraphs.induced"]),
        "hypergraphs.induced_s": per(inc["hypergraphs.induced"]),
        "partition.bisect_s": per(inc["partition.bisect"]),
        "partition.bisections": per(calls["partition.bisect"]),
        "partition.events_substantive": per(tally["events_substantive"]),
        "partition.events_clamped": per(tally["events_clamped"]),
        "partition.goodness_s": per(inc["partition.goodness"]),
        "partition.goodness_pass_frac": frac(tally["goodness_passes"], tally["goodness_checks"]),
        "stitch.calls": per(stitch_calls),
        "stitch.success_frac": frac(tally["stitch_successes"], stitch_calls),
        "stitch.failures": per(stitch_calls - tally["stitch_successes"]),
        "stitch.junction_attempts": per(tracer.count("stitch.attempt") + tally["power_attempts"]),
        "paths.search_s": per(inc["paths.search"]),
        "paths.search_calls": per(calls["paths.search"]),
        "paths.search_nodes": per(tracer.count("paths.node", "paths.search")),
        "paths.clique_s": per(inc["paths.clique"]),
        "paths.enumerate_s": per(inc["paths.enumerate"]),
        "paths.enumerate_calls": per(calls["paths.enumerate"]),
        "factors.search_s": per(inc["factors.search"]),
        "factors.searches": per(calls["factors.search"]),
        "absorb.classify_s": per(inc["absorb.classify"]),
        "absorb.can_absorb_calls": per(calls["absorb.can_absorb"]),
        "cli.report_s": per(inc["cli.report"]),
        "cli.self_s": per(tracer.exclusive["cli.main"]),
        "cli.pool_wait_s": per(inc["cli.pool_wait"]),
        "cli.command_s": per(inc["cli.main"]),
        "cli.payload_bytes.a": float(tracer.payload_bytes.get("a", 0)),
        "cli.payload_bytes.b": float(tracer.payload_bytes.get("b", 0)),
    }
    for layer in LAYERS[:-1]:  # cli.self_s leaves out the report and pool-wait frames
        values[f"{layer}.self_s"] = per(selfs[layer])
    return {name: values[name] for name in PER_LAYER}
