"""Span tracing from outside the package, for the traced benchmark run.

Wrappers are installed on module attributes (the names a caller looks up at
call time), so no package file changes.  Each span records its name, start,
end, parent span and operation id; spans stay in memory and are written when
the run ends.  Start and end are process CPU seconds, which exclude the time
the host takes the CPU away (steal); each span also keeps its wall-clock
start and end for the timeline.  Per-string algebra (``bracket``,
``bracket_normalized``, ``apply_sequence``) is never wrapped: it runs about a
million times per run.
"""

from __future__ import annotations

import functools
import time
import warnings
import weakref
from collections import defaultdict


#: the fields of a span, in the order the tracer stores them
SPAN_FIELDS = ("name", "cpu_start", "cpu_end", "parent", "op", "wall_start", "wall_end")


class Tracer:
    """In-memory span recorder with counters, one instance per run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # one list of SPAN_FIELDS per span
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.untraced: set[str] = set()
        self._stack: list[int] = []
        self._op = None
        self._installed: list[tuple[object, str, object]] = []
        # generate() result -> number of new (non-seed) members, for dedupe hits
        self._generated: dict[int, tuple[weakref.ref, int]] = {}

    # -- spans ------------------------------------------------------------

    def open(self, name: str, op=None) -> int:
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(
            [name, time.process_time(), None, parent, self._op, time.perf_counter(), None]
        )
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.process_time()
        span[6] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order")

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- wrappers ---------------------------------------------------------

    def install(self, namespace, spans) -> None:
        """Wrap ``namespace.<name>`` for each span "<layer>.<name>".

        A name the namespace no longer has is recorded as untraced.
        """
        for span in spans:
            name = span.split(".", 1)[1]
            fn = getattr(namespace, name, None)
            if fn is None:
                self.untraced.add(f"{namespace.__name__}.{name}")
                continue
            setattr(namespace, name, self._wrap(fn, span, HOOKS.get(span)))
            self._installed.append((namespace, name, fn))

    def uninstall(self) -> None:
        for namespace, name, fn in reversed(self._installed):
            setattr(namespace, name, fn)
        self._installed.clear()

    def _wrap(self, fn, span, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(_span_name(span, kwargs))
            try:
                if span == "graph.order_members":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    tracer.count("graph.fallback_blocks", len(caught))
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if span == "graph.order_members":
                for w in caught:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def remember_generated(self, result, new_members: int) -> None:
        self._generated[id(result)] = (weakref.ref(result), new_members)

    def new_members_of(self, g):
        entry = self._generated.get(id(g))
        if entry is None or entry[0]() is not g:
            return None
        return entry[1]


def _span_name(span: str, kwargs) -> str:
    if span == "statespace.simulate_reduced":
        return f"{span}[{kwargs.get('integrator', 'expm')}]"
    return span


# -- counters recorded at the span boundaries --------------------------------


def _digamma_size(digamma) -> int:
    return len({(s.x_mask, s.z_mask) for s in digamma if not s.is_identity})


def _after_generate(tracer, args, kwargs, result):
    digamma, seeds = args[0], args[1]
    tracer.count("closure.generate_calls")
    tracer.count("closure.members", len(result))
    tracer.count("closure.brackets_tested", len(result) * _digamma_size(digamma))
    n_seeds = len({(s.x_mask, s.z_mask) for s in seeds})
    tracer.remember_generated(result, len(result) - n_seeds)


def _after_build_graph(tracer, args, kwargs, result):
    tracer.count("graph.build_graph_calls")
    tracer.count("graph.edges", len(result.edges))
    new = tracer.new_members_of(args[0])
    if new is not None:
        # every anticommuting (member, nu) pair is a directed edge: 2E of them,
        # and each one either added a member or hit the dedupe table
        tracer.count("closure.dedupe_hits", 2 * len(result.edges) - new)


def _after_build_model(tracer, args, kwargs, result):
    tracer.count("statespace.nnz_a", len(result.a_entries))


def _after_csv(tracer, args, kwargs, result):
    # the CSV is ASCII, so characters are bytes
    tracer.count("statespace.csv_bytes", len(result))


def _after_simulate(tracer, args, kwargs, result):
    import numpy as np

    integrator = kwargs.get("integrator", args[3] if len(args) > 3 else "expm")
    norms = np.linalg.norm(result.states, axis=1)
    x0 = np.asarray(args[1], dtype=float)
    tracer.maximum("statespace.norm_drift", float(np.max(np.abs(norms - np.linalg.norm(x0)))))
    if integrator == "rk4":
        step = kwargs.get("step", args[4] if len(args) > 4 else 1e-3)
        tracer.count("statespace.rhs_evals", 4 * rk4_steps(result.times, step))


def _after_evolve(tracer, args, kwargs, result):
    tracer.count("oracle.evolve_calls")


def rk4_steps(times, step: float) -> int:
    """Number of RK4 steps the fixed-step march takes to visit ``times``."""
    t_cur = 0.0
    steps = 0
    for target in times:
        n_full = int((float(target) - t_cur) / step + 1e-9)
        steps += n_full
        t_cur += n_full * step
        if float(target) - t_cur > 1e-15:
            steps += 1
            t_cur = float(target)
    return steps


HOOKS = {
    "closure.generate": _after_generate,
    "graph.build_graph": _after_build_graph,
    "statespace.build_model": _after_build_model,
    "statespace.trajectory_to_csv": _after_csv,
    "statespace.simulate_reduced": _after_simulate,
    "oracle.evolve_expectation": _after_evolve,
}


# -- analysis ----------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Span duration minus the part of it that direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def check_nesting(spans, tol: float = 1e-9) -> list[str]:
    """Problems with span nesting: a child outside its parent, or self time < 0."""
    problems = []
    for i, s in enumerate(spans):
        name, parent = s[0], s[3]
        for lo, hi in ((1, 2), (5, 6)):  # CPU clock, wall clock
            if s[hi] is None or s[hi] < s[lo]:
                problems.append(f"span {i} ({name}) not closed or ends before it starts")
            elif parent is not None and (s[lo] < spans[parent][lo] or s[hi] > spans[parent][hi]):
                problems.append(f"span {i} ({name}) lies outside its parent {spans[parent][0]}")
    for i, s in enumerate(self_times(spans)):
        if s < -tol:
            problems.append(f"span {i} ({spans[i][0]}) has negative self time {s}")
    return problems


def subtree_balance(spans) -> list[tuple[str, float, float]]:
    """(root name, root duration, sum of self times in its subtree) per root."""
    own = self_times(spans)
    root_of = []
    for i, s in enumerate(spans):
        root_of.append(i if s[3] is None else root_of[s[3]])
    sums: dict[int, float] = defaultdict(float)
    for i, r in enumerate(root_of):
        sums[r] += own[i]
    return [(spans[r][0], spans[r][2] - spans[r][1], sums[r]) for r in sorted(sums)]
