"""Per-layer tracing of one coevomarket run, from outside the package.

``Tracer.install()`` replaces public functions and methods of the
package modules (``traders``, ``lob``, ``harness``, ``coevo``,
``analysis``, ``stgp``) with timing wrappers; ``remove()`` puts the
originals back.  Nothing inside ``src/`` is edited: every wrapped call
site looks the name up at call time (a module attribute, a method, or a
function-local import), so the wrappers see every call made in this
process.  Work done in worker processes is not seen.

Each wrapped call is a span.  A span whose own name, or a name in its
``skip_inside`` set, is already open passes straight through, so a call
counts once, at its outermost boundary (the ``cancel`` inside
``submit_order`` is not a second, harness-initiated cancel).  Self time
is a span's duration minus the time of the child spans it contains; the
wrappers' own bookkeeping is left out of the parent's self time.

Calls that happen millions of times (quotes, PMF builds, submits) are
aggregated per span name; the coarse spans (sessions, generations,
analysis passes, config parsing, rendering) are also kept one by one
with their parent, for ``trace.json``.
"""

import io
import time
import tracemalloc

from coevomarket import analysis, coevo, harness, lob, stgp, traders

COARSE = {"harness.session", "harness.config", "coevo.quiver",
          "stgp.generation", "analysis.epsilon", "analysis.matrix",
          "analysis.rqa", "analysis.pbm", "cli.render"}


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child seconds, coarse span id]
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.spans = []  # coarse spans: [name, parent id, start, end]
        self.pmf_keys = set()
        self.depth_seen = 0
        self.trades = 0
        self.sessions = []  # SessionResult of every traced run_session
        self.steps = 0
        self.cells = 0
        self.adoptions = 0
        self.samples = 0
        self.dims = 0
        self.computed_bytes = 0
        self.peak_alloc = 0
        self.genome_sizes = []
        self.replays = []  # (function, args, kwargs) of analysis calls
        self._saved = []

    # --- installation ---

    def install(self):
        def same(args):
            return args

        def series_bytes(series):
            return 8 * len(series) ** 2 * series.dim

        def on_pmf(args, pmf):
            self.pmf_keys.add((pmf.s, pmf.side, pmf.p_lo, pmf.p_hi))

        def before_submit(args):
            book = args[0]
            self.depth_seen += book.depth(lob.BID) + book.depth(lob.ASK)

        def on_submit(args, events):
            self.trades += sum(isinstance(ev, lob.TradeExecuted)
                               for ev in events)

        def on_session(args, result):
            self.steps += args[0].duration
            self.sessions.append(result)

        def on_quiver(args, field):
            self.cells += len(field.grid) ** 2

        def on_observe(args, adopted):
            self.adoptions += adopted is True

        def on_epsilon(args, eps):
            self.computed_bytes += series_bytes(args[0])

        def on_matrix(args, matrix):
            series = args[0]
            self.samples = len(series)
            self.dims = series.dim
            self.computed_bytes += series_bytes(series)

        def on_generation(args, result):
            self.genome_sizes.append(result[1].mean_size)

        self._patch(traders.TraderState, "quote", "traders.quote")
        self._patch(traders, "przi_pmf", "traders.pmf", after=on_pmf)
        self._patch(stgp, "quote_from_tree", "stgp.tree_quote")
        self._patch(lob.OrderBook, "submit_order", "lob.submit",
                    before=before_submit, after=on_submit)
        self._patch(lob.OrderBook, "cancel", "lob.cancel",
                    skip_inside={"lob.submit"})
        self._patch(harness, "run_session", "harness.session",
                    after=on_session)
        self._patch(harness, "load_config", "harness.config")
        self._patch(harness, "parse_session_config", "harness.config")
        self._patch(coevo, "quiver_sample", "coevo.quiver", after=on_quiver)
        self._patch(coevo.AdaptiveClimber, "observe_trade", "coevo.observe",
                    after=on_observe)
        self._patch(analysis, "default_epsilon", "analysis.epsilon",
                    after=on_epsilon, replay=same)
        self._patch(analysis, "recurrence_matrix", "analysis.matrix",
                    after=on_matrix, replay=same)
        self._patch(analysis, "rqa_metrics", "analysis.rqa", replay=same)
        self._patch(analysis, "write_pbm", "analysis.pbm",
                    replay=lambda args: (args[0], io.StringIO()))
        self._patch(stgp, "run_generation", "stgp.generation",
                    after=on_generation)
        for owner, attr in ((lob, "export_tape"), (coevo, "export_quiver"),
                            (analysis, "export_rqa"),
                            (stgp, "export_genstats")):
            self._patch(owner, attr, "cli.render")

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, name, before=None, after=None,
               skip_inside=frozenset(), replay=None):
        # the raw attribute, so a method is restored as a plain function
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, before, after,
                                        skip_inside | {name}, replay))

    def _wrap(self, fn, name, before, after, skip_inside, replay):
        stack = self.stack
        spans = self.spans
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        coarse = name in COARSE
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            enter = perf()
            for frame in stack:
                if frame[0] in skip_inside:
                    return fn(*args, **kwargs)
            if before is not None:
                before(args)
            span_id = None
            if coarse:
                span_id = len(spans)
                spans.append([name, stack[-1][2] if stack else None,
                              enter, None])
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            duration = t1 - t0
            stats[0] += 1
            stats[1] += duration
            stats[2] += duration - frame[1]
            if coarse:
                spans[span_id][3] = t1
            if after is not None:
                after(args, result)
            if replay is not None:
                self.replays.append((fn, replay(args), kwargs))
            if stack:
                stack[-1][1] += perf() - enter
            return result

        return wrapper

    def replay_allocations(self):
        """Peak traced allocation of each recorded analysis call, rerun
        on its own arguments under tracemalloc.  Rerunning keeps
        tracemalloc's cost per allocation out of the timed spans."""
        for fn, args, kwargs in self.replays:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.peak_alloc = max(self.peak_alloc,
                                      tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        self.replays.clear()

    # --- results ---

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        Layers that did not run in this workload read 0.
        """
        quotes = self.calls("traders.quote")
        submits = self.calls("lob.submit")
        session_s = self.total_s("harness.session")
        quiver_s = self.total_s("coevo.quiver")
        mb = 1e6
        return {
            "traders.quotes": (quotes, "count"),
            "traders.quote_s": (self.total_s("traders.quote"), "s"),
            "traders.quote_self_s": (self.self_s("traders.quote"), "s"),
            "traders.pmf_calls": (self.calls("traders.pmf"), "count"),
            "traders.pmf_distinct": (len(self.pmf_keys), "count"),
            "traders.pmf_s": (self.total_s("traders.pmf"), "s"),
            "lob.submits": (submits, "count"),
            "lob.submit_s": (self.total_s("lob.submit"), "s"),
            "lob.cancels": (self.calls("lob.cancel"), "count"),
            "lob.cancel_s": (self.total_s("lob.cancel"), "s"),
            "lob.trades": (self.trades, "count"),
            "lob.depth_at_submit": (self.depth_seen / submits if submits
                                    else 0.0, "orders"),
            "harness.sessions": (self.calls("harness.session"), "count"),
            "harness.steps": (self.steps, "count"),
            "harness.session_s": (session_s, "s"),
            "harness.self_s": (self.self_s("harness.session"), "s"),
            "harness.steps_per_s": (self.steps / session_s if session_s
                                    else 0.0, "1/s"),
            "harness.config_s": (self.total_s("harness.config"), "s"),
            "coevo.cells": (self.cells, "count"),
            "coevo.cells_per_s": (self.cells / quiver_s if quiver_s
                                  else 0.0, "1/s"),
            "coevo.trades_observed": (self.calls("coevo.observe"), "count"),
            "coevo.adoptions": (self.adoptions, "count"),
            "analysis.samples": (self.samples, "count"),
            "analysis.dims": (self.dims, "count"),
            "analysis.epsilon_s": (self.total_s("analysis.epsilon"), "s"),
            "analysis.matrix_s": (self.total_s("analysis.matrix"), "s"),
            "analysis.rqa_s": (self.total_s("analysis.rqa"), "s"),
            "analysis.pbm_s": (self.total_s("analysis.pbm"), "s"),
            "analysis.computed_mb": (self.computed_bytes / mb, "MB"),
            "analysis.peak_alloc_mb": (self.peak_alloc / mb, "MB"),
            "stgp.generations": (self.calls("stgp.generation"), "count"),
            "stgp.generation_s": (self.total_s("stgp.generation"), "s"),
            "stgp.breed_s": (self.self_s("stgp.generation"), "s"),
            "stgp.tree_quotes": (self.calls("stgp.tree_quote"), "count"),
            "stgp.tree_quote_s": (self.total_s("stgp.tree_quote"), "s"),
            "stgp.mean_genome_size": (
                sum(self.genome_sizes) / len(self.genome_sizes)
                if self.genome_sizes else 0.0, "nodes"),
            "cli.render_s": (self.total_s("cli.render"), "s"),
        }

    def dump(self) -> dict:
        """The span table and the coarse spans, for trace.json."""
        return {
            "span_stats": {name: {"calls": c, "total_s": t, "self_s": s}
                           for name, (c, t, s) in sorted(self.stats.items())
                           if c},
            "spans": [{"name": n, "parent": p, "start": a, "end": b}
                      for n, p, a, b in self.spans],
        }
