"""Spans and counters recorded around the library's public functions.

The library is not edited.  :meth:`Tracer.install` finds every binding of
each traced function (the defining module, every ``ima`` module that
imported it by name, and the benchmark's own modules); while an op runs
under :meth:`Tracer.run_op` each binding is replaced by a wrapper that
records a span: name, start, end, parent span and op.  Spans stay in
memory until :meth:`Tracer.write`.  A span's self time is its duration
minus the time its child spans cover.  Counters are kept at the same
boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

from ima import automata, dflow, graph, laws, soliton, term

import speed

TRACED = {
    term: ("parse", "evaluate", "term_equal"),
    graph: ("decompose", "sum_graphs", "trace", "reindex", "isomorphic"),
    automata: ("identity_automaton", "sum_automata", "trace_automaton",
               "reindex_automaton", "equivalent_automata"),
    dflow: ("evaluate", "step", "walk_closure"),
    soliton: ("enumerate_pims",),
    laws: ("check_one",),
}
SPAN_NAMES = [f"{m.__name__.split('.')[-1]}.{f}" for m, fs in TRACED.items() for f in fs]
COUNTERS = (
    "automata.Rel.compose.calls",
    "automata.Rel.compose.useful",
    "automata.trace_automaton.table_cells",
    "automata.trace_automaton.max_states",
    "automata.sum_automata.states_out",
    "graph.sum_graphs.vertices_in",
    "dflow.step.scanned",
    "dflow.step.returned",
)


def _binding_sites(bench_dir: Path):
    """Namespaces that may hold a traced function: every ``ima`` module,
    the classes defined in them, and the benchmark's own modules."""
    for name, mod in list(sys.modules.items()):
        path = getattr(mod, "__file__", None) or ""
        if name == "ima" or name.startswith("ima."):
            yield mod
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value
        elif path and Path(path).resolve().parent == bench_dir:
            yield mod


class Tracer:
    def __init__(self, bench_dir: Path):
        self.bench_dir = bench_dir
        self.spans: list[tuple] = []  # (id, parent id, op, name, start ns, end ns)
        self.stack: list[list] = []  # [span id, ns covered by children]
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = None
        self.bindings: dict[str, list[str]] = {}
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)

    # -- spans ----------------------------------------------------------------

    def _open(self):
        frame = [len(self.spans) + len(self.stack), 0]
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, start, end):
        self.stack.pop()
        took = end - start
        if self.stack:
            self.stack[-1][1] += took
        self.calls[name] += 1
        self.self_ns[name] += took - frame[1]
        self.spans.append((frame[0], parent, self.op, name, start, end))

    def _wrap(self, name, fn, before=None, after=None):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            frame, parent = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, parent, start, clock())
            if after is not None:
                after(result, *args)
            return result

        return traced

    def run_op(self, op, fn, *args):
        """Run one op, with the wrappers attached, under a root span of its
        own named ``op``."""
        self.op = op
        self.attach()
        frame, parent = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append((frame[0], parent, op, "op", start, end))
            self.detach()
            self.op = None

    # -- counters ---------------------------------------------------------------

    def _before_trace(self, t, w, *rest):
        self.counts["automata.trace_automaton.table_cells"] += (len(t.iface) + 1) ** 2
        key = "automata.trace_automaton.max_states"
        self.counts[key] = max(self.counts[key], len(t.states))

    def _before_sum_automata(self, t1, t2):
        self.counts["automata.sum_automata.states_out"] += len(t1.states) * len(t2.states)

    def _before_sum_graphs(self, g1, g2):
        self.counts["graph.sum_graphs.vertices_in"] += len(g1.vertices) + len(g2.vertices)

    def _after_step(self, result, m, c):
        """Local transitions a step has to scan: the delta of the vertex at
        a port locus, every internal vertex's delta at the anchor."""
        kind = c.locus[0]
        if kind == "port":
            scanned = len(m.local(c.locus[1]).base.delta)
        elif kind == "anchor":
            scanned = sum(len(m.local(v).base.delta) for v in m.graph.internal_vertices())
        else:
            return
        self.counts["dflow.step.scanned"] += scanned
        self.counts["dflow.step.returned"] += len(result)

    def _counting_compose(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def compose(a, b):
            counts["automata.Rel.compose.calls"] += 1
            if any(a.rows) and any(b.rows):
                counts["automata.Rel.compose.useful"] += 1
            return fn(a, b)

        return compose

    # -- installing -------------------------------------------------------------

    def install(self):
        """Find every binding of every traced function and build its
        wrapper; raise if attaching the wrappers would leave a binding
        unwrapped.  The wrappers take effect only between :meth:`attach`
        and :meth:`detach`."""
        hooks = {
            "automata.trace_automaton": (self._before_trace, None),
            "automata.sum_automata": (self._before_sum_automata, None),
            "graph.sum_graphs": (self._before_sum_graphs, None),
            "dflow.step": (None, self._after_step),
        }
        originals = {
            f"{mod.__name__.split('.')[-1]}.{fname}": getattr(mod, fname)
            for mod, names in TRACED.items()
            for fname in names
        }
        wrappers = {name: self._wrap(name, fn, *hooks.get(name, (None, None)))
                    for name, fn in originals.items()}
        for site in _binding_sites(self.bench_dir):
            for attr, value in list(vars(site).items()):
                for name, fn in originals.items():
                    if value is fn:
                        self._patches.append((site, attr, fn, wrappers[name]))
                        self.bindings.setdefault(name, []).append(f"{site.__name__}.{attr}")
        compose = automata.Rel.compose
        self._patches.append((automata.Rel, "compose", compose, self._counting_compose(compose)))
        self.attach()
        try:
            missed = [
                f"{site.__name__}.{attr}"
                for site in _binding_sites(self.bench_dir)
                for attr, value in vars(site).items()
                if any(value is fn for fn in originals.values())
            ]
        finally:
            self.detach()
        unbound = [name for name in SPAN_NAMES if name not in self.bindings]
        if missed or unbound:
            raise RuntimeError(f"unwrapped bindings {missed}, unbound spans {unbound}")

    def attach(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def detach(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def metrics(self, calibration_ns: float) -> dict[str, tuple[float, str]]:
        """Calls, self times at reference speed (see ``speed``, scaled by
        ``calibration_ns``, the calibration time while the ops ran) and the
        counter ratios."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (speed.normalise(self.self_ns[name], calibration_ns) / 1e9, "s")
        c = self.counts
        out["automata.Rel.compose.calls"] = (c["automata.Rel.compose.calls"], "count")
        out["automata.Rel.compose.useful_ratio"] = (
            c["automata.Rel.compose.useful"] / c["automata.Rel.compose.calls"]
            if c["automata.Rel.compose.calls"] else 0.0, "ratio")
        for name in ("automata.trace_automaton.table_cells",
                     "automata.trace_automaton.max_states",
                     "automata.sum_automata.states_out",
                     "graph.sum_graphs.vertices_in"):
            out[name] = (c[name], "count")
        out["dflow.step.scan_ratio"] = (
            c["dflow.step.returned"] / c["dflow.step.scanned"]
            if c["dflow.step.scanned"] else 0.0, "ratio")
        return out

    def exact_counts(self) -> dict[str, int]:
        """Everything that must repeat exactly between runs on one seed."""
        return {**{f"{n}.calls": v for n, v in self.calls.items()}, **self.counts,
                "spans": len(self.spans)}

    def write(self, path: Path):
        """Spans as tab-separated lines: id, parent, op, name, start, end
        (nanoseconds from an arbitrary origin)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for sid, parent, op, name, start, end in self.spans:
                out.write(f"{sid}\t{'' if parent is None else parent}\t{op}\t{name}\t{start}\t{end}\n")
