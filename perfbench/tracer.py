"""Outside-in tracer for padwhit's layer boundaries.

The tracer replaces each boundary function at every place its name is bound
inside the ``padwhit`` package: ``from .characters import epsilon_factor``
gives ``engine`` and ``verify`` references of their own, ``characters_mod``
is bound in four modules, and ``padwhit/__init__`` re-exports most names.  The ``twist_data``
methods of the three descriptor classes and ``UnitCharacter.__mul__`` are
patched on their classes.  ``uninstall`` puts every original back.

Each call records a span (name, start, end, parent span, request id) in
``array`` columns that stay in memory until ``write``; past ``max_spans``
further spans are only counted as dropped.  Calls, self time and
per-boundary counters are accumulated as calls return, so they stay exact
when the span store is full.  Self time is a span's duration minus the part
of it that child spans cover.

Per-coefficient helpers (``UnitCharacter.eval_unit``, ``RootOfUnity.embed``,
``LaurentPoly`` arithmetic) are not wrapped: they run millions of times per
run, and a span each would swamp what is measured.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

from mpmath import mp

PACKAGE = "padwhit"

# Check functions that ``verify.run_suite`` reaches.
VERIFY_CHECKS = (
    "check_gauss_closed_form",
    "check_epsilon_properties",
    "check_epsilon_alignment",
    "check_pair_sum_dichotomy",
    "check_representation",
    "check_normalization",
    "check_support",
    "check_atkin_lehner",
    "check_dual_tables",
    "check_closed_forms",
    "check_diagonal_and_reduction",
    "check_parseval",
    "check_supercuspidal_structure",
    "check_main_theorem",
)

# Span name -> (module, attributes bound to the boundary function).  Listed
# bottom layer first.
BOUNDARY = {
    "padics.unit_group": ("padics", ("unit_group",)),
    "characters.characters_mod": ("characters", ("characters_mod",)),
    "characters.make_character": ("characters", ("make_character",)),
    "characters.mul": ("characters", ("UnitCharacter.__mul__",)),
    "characters.gauss_sum": ("characters", ("gauss_sum",)),
    "characters.epsilon_factor": ("characters", ("epsilon_factor",)),
    "representations.twist_data": ("representations", (
        "PrincipalSeries.twist_data",
        "SteinbergTwist.twist_data",
        "SupercuspidalOracle.twist_data",
    )),
    "numerics.series_expand": ("numerics", ("series_expand",)),
    "engine.coefficient_table": ("engine", ("coefficient_table",)),
    "engine.tables_for_level": ("engine", ("tables_for_level",)),
    "engine.sup_norm": ("engine", ("sup_norm",)),
    "engine.whittaker_value": ("engine", ("whittaker_value",)),
    "engine.atkin_lehner_reduce": ("engine", ("atkin_lehner_reduce",)),
    "engine.reduce_matrix": ("engine", ("reduce_matrix",)),
    "verify.pair_sum": ("verify", ("pair_sum",)),
    **{f"verify.{name}": ("verify", (name,)) for name in VERIFY_CHECKS},
    "cli.main": ("cli", ("main",)),
}


_SOLVE = ("supnorm-scan op_p50_ms, point-values op_tail_ms, verify-suite op_p50_ms; "
          "no change on gl1-constants")
# Products are 98.8% of gl1-constants operations and set its p50 and p99;
# Gauss sums, first-time epsilon factors and pair sums, the rest, mostly lie
# beyond its p99.
_GL1_MUL = "gl1-constants op_p50_ms, op_tail_ms and ops_per_s"
_GL1_CONST = "gl1-constants ops_per_s"
# Span name -> the end-to-end metric and workload it is predicted to move.
PREDICTS = {
    "padics.unit_group": "setup_s and first-operation latency on every workload",
    "characters.characters_mod": _GL1_CONST + " and setup_s",
    "characters.make_character": _GL1_MUL,
    "characters.mul": _GL1_MUL + "; feeds twist_data on the engine workloads",
    "characters.gauss_sum": _GL1_CONST,
    "characters.epsilon_factor": _GL1_CONST,
    "representations.twist_data": _SOLVE,
    "numerics.series_expand": _SOLVE,
    "engine.coefficient_table": _SOLVE,
    "engine.tables_for_level": "point-values ops_per_s and peak_rss_mb",
    "engine.sup_norm": "supnorm-scan op_tail_ms; no change on point-values",
    "engine.whittaker_value": "point-values op_p50_ms",
    "engine.atkin_lehner_reduce": "point-values op_p50_ms",
    "engine.reduce_matrix": "point-values op_p50_ms",
    "verify.pair_sum": _GL1_CONST,
    "cli.main": "verify-suite op_p50_ms",
    "trace": "cost of tracing: traced minus untraced operation time",
}


def prediction(metric: str) -> str:
    """What a change in this per-layer metric should move end to end."""
    name = metric.rpartition(".")[0]
    if name.startswith("verify.check_"):
        return "verify-suite op_p50_ms"
    return PREDICTS[name]


def _column_kind(tracer, args, kwargs, table):
    if not table.coeffs:
        kind = "zero"
    elif table.tail.rho == 0:
        kind = "finite"
    else:
        kind = "recurrent"
    tracer.bump("engine.coefficient_table", kind)


def _gauss_terms(tracer, args, kwargs, result):
    x, mu = args[0], args[1]
    if not x.exact_zero:
        m = max(mu.conductor, -x.valuation(), 1)
        tracer.bump("characters.gauss_sum", "terms", mu.p**m - mu.p ** (m - 1))


def _table_key(tracer, args, kwargs, result):
    # tables_for_level caches per (descriptor, level, depth, precision).
    key = (args, tuple(sorted(kwargs.items())), mp.prec)
    tracer.first_seen("engine.tables_for_level", key)


def _epsilon_key(tracer, args, kwargs, result):
    # Unramified characters return 1 without touching the cache.
    mu = args[0]
    if mu.conductor:
        tracer.bump("characters.epsilon_factor", "ramified")
        tracer.first_seen("characters.epsilon_factor", (mu, mp.prec))


COUNTERS = {
    "engine.coefficient_table": _column_kind,
    "characters.gauss_sum": _gauss_terms,
    "engine.tables_for_level": _table_key,
    "characters.epsilon_factor": _epsilon_key,
}


def _ratio(num, den):
    return num / den if den else 0.0


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in BOUNDARY:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
        if name == "engine.coefficient_table":
            specs += [(f"{name}.{k}", "count", "lower")
                      for k in ("zero", "finite", "recurrent")]
        elif name == "characters.gauss_sum":
            specs.append((f"{name}.terms", "count", "lower"))
        elif name in ("engine.tables_for_level", "characters.epsilon_factor"):
            specs.append((f"{name}.misses", "count", "lower"))
            specs.append((f"{name}.hit_ratio", "ratio", "higher"))
    specs.append(("trace.overhead_s", "s", "lower"))
    specs.append(("trace.overhead_frac", "ratio", "lower"))
    return specs


class Tracer:
    """Span recorder with online self-time accounting.

    ``clock`` is injectable so tests can drive a synthetic call tree.
    ``request`` is set by the caller before each operation; every span opened
    during that operation carries it.  While ``paused`` is true, wrapped
    calls run unrecorded.
    """

    def __init__(self, clock=time.perf_counter, max_spans=1_000_000):
        self.clock = clock
        self.max_spans = max_spans
        self.request = -1
        self.paused = False  # set while the benchmark checks an output
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self._seen: dict[str, set] = {}
        self._stack: list[list] = []  # [span index or -1, child time]
        self._patched: list[tuple[object, str, object]] = []

    def bump(self, name: str, key: str, n: int = 1) -> None:
        self.counts[(name, key)] = self.counts.get((name, key), 0) + n

    def first_seen(self, name: str, key) -> None:
        """Count ``key`` as a miss of ``name`` the first time it shows up."""
        seen = self._seen.setdefault(name, set())
        if key not in seen:
            seen.add(key)
            self.bump(name, "misses")

    def wrap(self, name: str, fn, counter=None):
        """A traced version of ``fn`` recording spans under ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        name_id = self._ids[name]
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            if len(self.span_start) < self.max_spans:
                index = len(self.span_start)
                self.span_name.append(name_id)
                self.span_parent.append(parent)
                self.span_request.append(self.request)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                index = -1
                self.dropped += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    self.span_start[index] = start
                    self.span_end[index] = end
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary of the imported ``padwhit`` package.  A
        boundary that no longer exists is skipped and reports zero calls."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, (module_name, attrs) in BOUNDARY.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            for attr in attrs:
                owner_name, _, member = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, member, None)
                if original is None:
                    continue
                traced = self.wrap(name, original, COUNTERS.get(name))
                if owner_name:
                    self._patch(owner, member, traced)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        """Recorded spans as (name, start, end, parent index, request id)."""
        return [
            (self.names[n], s, e, parent, req)
            for n, s, e, parent, req in zip(self.span_name, self.span_start,
                                            self.span_end, self.span_parent,
                                            self.span_request)
        ]

    def metrics(self, overhead_s: float, overhead_frac: float) -> dict:
        """Every per-layer metric as {name: (value, unit)}."""
        out = {}
        for metric, unit, _ in metric_specs():
            name, _, field = metric.rpartition(".")
            if name == "trace":
                value = overhead_s if field == "overhead_s" else overhead_frac
            elif field == "calls":
                value = self.calls.get(name, 0)
            elif field == "self_s":
                value = self.self_s.get(name, 0.0)
            elif field == "hit_ratio":
                base = self.counts.get((name, "ramified"), self.calls.get(name, 0))
                value = _ratio(base - self.counts.get((name, "misses"), 0), base)
            else:
                value = self.counts.get((name, field), 0)
            out[metric] = (value, unit)
        return out

    def write(self, path: Path) -> None:
        """Write the span store as one ``.npz`` file: the span names, the
        dropped count and one array per column (``numpy.load`` reads it)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {c: getattr(self, f"span_{c}") for c in ("name", "start", "end", "parent", "request")}
        np.savez(path, names=np.array(self.names), dropped=np.array(self.dropped),
                 **{c: np.frombuffer(col, dtype=col.typecode) for c, col in columns.items()})


def self_times(spans) -> dict[str, float]:
    """Self time per span name from recorded spans: each span's duration
    minus the union of its children's intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
