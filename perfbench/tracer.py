"""In-memory span tracing of the program's public functions, from outside it.

`Tracer.install` replaces every public function of the program's modules, at
every module that binds its name (so `family.trace_table` and
`cli.global_reduce` are wrapped as well as `curve.trace_table`), and the
callback of every CLI command.  Internal calls made through those names are
therefore recorded too.  `Tracer.uninstall` puts the originals back.

A span is (id, parent id, name, start, end, exception name, attribute).  The
program's trace-table pool runs `count_points` on worker threads, which do
not inherit the caller's stack; a span opened on such a thread with nothing
open on it takes the innermost open span of the main thread as its parent.
The benchmark's client is the main thread, so that span is the call that
submitted the work.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time

MODULES = ("arith", "curve", "localdata", "galois", "symprime", "family")

# Called up to millions of times per run: counted, not timed.
COUNT_ONLY = frozenset({"arith.kronecker", "arith.is_prime", "arith.valuation"})

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _table_request(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    model = getattr(model, "minimal_model", model)  # a GlobalReduction stands for its model
    return [list(model.ainvs()), _arg(args, kwargs, 1, "X"),
            len(result.good) + len(result.ramified)]


# Argument recorded with each span of these functions.
_ATTRIBUTES = {
    "curve.count_points": lambda args, kwargs, result: _arg(args, kwargs, 1, "p"),
    "localdata.tate": lambda args, kwargs, result: _arg(args, kwargs, 1, "p"),
    "curve.trace_table": _table_request,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._counters = {}
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the public functions of `package`'s modules and its CLI commands."""
        modules = [getattr(package, name) for name in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        for owner in (package, *modules, package.cli):
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(owner, attr, wrappers[value])
        for name, command in package.cli.main.commands.items():
            self._patch(command, "callback", self._wrap(f"cli.{name}", command.callback))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            counter = self._counters[name] = itertools.count()

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                next(counter)
                return fn(*args, **kwargs)

            return counted

        attribute = _ATTRIBUTES.get(name)
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, type(exc).__name__, None))
                raise
            end = time.perf_counter()
            stack.pop()
            attr = None
            if attribute:
                try:
                    attr = attribute(args, kwargs, result)
                except Exception:  # a changed signature must not change the call's outcome
                    pass
            spans.append((sid, parent, name, start, end, None, attr))
            return result

        return traced

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # -- results ------------------------------------------------------------

    def counts(self):
        """Calls of each count-only function; read once, after the traced work."""
        return {name: next(counter) for name, counter in self._counters.items()}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _band(p):
    if p < 10**3:
        return "lt1e3"
    if p < 10**5:
        return "1e3-1e5"
    if p < 10**7:
        return "1e5-1e7"
    return "ge1e7"


BANDS = ("lt1e3", "1e3-1e5", "1e5-1e7", "ge1e7")


def _tail(values):
    """The highest of p90, p99, p99.9 with at least ten samples beyond it; max below 100."""
    n = len(values)
    if n == 0:
        return 0.0
    ordered = sorted(values)
    for q in (0.999, 0.99, 0.9):
        if n * (1 - q) >= 10:
            return ordered[min(n - 1, int(q * n))]
    return ordered[-1]


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for sid, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans, counts):
    """Per-layer statistics named `<module>.<function>.<stat>`.

    busy_s sums the durations of a function's outermost spans (a call nested
    in a call of the same function is not counted twice); spans on the pool's
    threads overlap, so busy_s can exceed the wall time of their caller.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)

    def outermost(span):
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == span[2]:
                return False
            parent = by_id.get(parent[1])
        return True

    calls, busy, self_s = {}, {}, {}
    for span in spans:
        name = span[2]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[span[0]]
        if outermost(span):
            busy[name] = busy.get(name, 0.0) + (span[4] - span[3])

    m = {}
    m["arith.kronecker.calls"] = counts.get("arith.kronecker", 0)
    m["arith.is_prime.calls"] = counts.get("arith.is_prime", 0)
    for name in ("arith.factorize", "galois.image_test", "galois.prune_epsilon",
                 "galois.pair_witness", "galois.epsilon_candidates",
                 "symprime.smooth_sum_S", "symprime.smooth_sum_H",
                 "symprime.von_mangoldt", "symprime.bump_psi"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    m["galois.image_test.insufficient"] = sum(
        1 for s in spans if s[2] == "galois.image_test" and s[5] == "InsufficientSamples"
    )

    bands = {b: [] for b in BANDS}
    for s in spans:
        if s[2] == "curve.count_points":
            bands[_band(s[6] if s[6] is not None else 0)].append(s[4] - s[3])
    for band, durations in bands.items():
        m[f"curve.count_points.calls.{band}"] = len(durations)
        m[f"curve.count_points.busy_s.{band}"] = sum(durations)
        if band != "lt1e3":
            m[f"curve.count_points.p50_ms.{band}"] = (
                statistics.median(durations) * 1e3 if durations else 0.0
            )
            m[f"curve.count_points.tail_ms.{band}"] = _tail(durations) * 1e3

    tables = [s for s in spans if s[2] == "curve.trace_table" and s[6] is not None]
    m["curve.trace_table.calls"] = calls.get("curve.trace_table", 0)
    m["curve.trace_table.busy_s"] = busy.get("curve.trace_table", 0.0)
    m["curve.trace_table.self_s"] = self_s.get("curve.trace_table", 0.0)
    m["curve.trace_table.primes"] = sum(s[6][2] for s in tables)
    largest, repeats = {}, 0
    for s in sorted(tables, key=lambda s: s[3]):
        key, X = tuple(s[6][0]), s[6][1]
        if largest.get(key, -1) >= X:
            repeats += 1
        largest[key] = max(largest.get(key, -1), X)
    m["curve.trace_table.repeat_share"] = repeats / len(tables) if tables else 0.0

    name = "localdata.global_reduce"
    m[f"{name}.calls"] = calls.get(name, 0)
    m[f"{name}.busy_s"] = busy.get(name, 0.0)
    m[f"{name}.self_s"] = self_s.get(name, 0.0)
    tate = {"p23": [], "p5up": []}
    for s in spans:
        if s[2] == "localdata.tate":
            tate["p23" if s[6] in (2, 3) else "p5up"].append(s[4] - s[3])
    for band, durations in tate.items():
        m[f"localdata.tate.calls.{band}"] = len(durations)
        m[f"localdata.tate.busy_s.{band}"] = sum(durations)

    for fn in ("ingest", "build_family", "pair_statistics", "cm_census", "report_emit"):
        m[f"family.{fn}.busy_s"] = busy.get(f"family.{fn}", 0.0)
        m[f"family.{fn}.self_s"] = self_s.get(f"family.{fn}", 0.0)
    for command in ("family", "cm-census"):
        m[f"cli.{command}.busy_s"] = busy.get(f"cli.{command}", 0.0)
    return m
