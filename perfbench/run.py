"""padwhit benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload supnorm-scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Every run starts a fresh interpreter, so padwhit's ``lru_cache``s start cold,
as they do for each ``padwhit`` command.  Operations run serially, each after
the previous one returns, until their summed time reaches ``--seconds`` (and
at least ``min_ops`` ran, so the tail percentile has ten samples beyond it),
or exactly ``max_ops`` of them for a workload that sets it.  Outputs are
checked outside the timed calls; a failed check exits 1.

Times are reported at a reference CPU speed.  On a shared CPU the speed
drifts by tens of percent within seconds, so a timer signal makes the run
time a fixed piece of work (``speed_kernel``) every
``SPEED_EVERY_S``, between or inside operations; the sampling time is taken
out of the operation it interrupted.  Each operation's time is scaled by
``REFERENCE_KERNEL_S`` over the median kernel time from ``SPEED_WINDOW_S``
before it to ``SPEED_WINDOW_S`` after it.  A slower program still reads
slower; a slower machine mostly does not.  The unscaled times are printed
beside the scaled ones and kept in the result record.  Set-up time is the
exception: a fresh process sets up in 0.05 to 0.25 s, while the kernel's
speed swings by half within tens of milliseconds, so no sample taken after
set-up speaks for it.  It is reported as measured, the median
over ``SETUP_PROBES`` + 1 fresh processes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps padwhit's
layer boundaries (see ``tracer.py``), prints the per-layer metrics, writes
the spans to ``perfbench/out/``, and measures tracing overhead against an
untraced child process that replays the same operations.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Each run also writes that result, with its run environment, to
``perfbench/out/result-<workload>-seed<seed>-trace<0|1>.json`` for
``stats.py``.
"""

import argparse
from array import array
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy

# Set-up is timed from here to the first input: padwhit's import and the
# workload's input generation.  The interpreter and the third-party imports
# before this line are not padwhit's work, yet they take more than half of a
# fresh process's set-up.
_T0 = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 8  # extra fresh processes that only set up, for setup_s
CHILD_TIMEOUT_S = 170
REFERENCE_KERNEL_S = 6.0e-4  # speed_kernel's time at the reference speed
SPEED_EVERY_S = 0.1
SPEED_WINDOW_S = 1.0
SPEED_EDGE_SAMPLES = 10  # before the first and after the last operation


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the set-up probes and the untraced replay of a traced run.
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--ops", type=int, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


_KERNEL_MP = mpmath.MPContext()  # private: the program's precision never leaks in
_KERNEL_MP.prec = 128
_KERNEL_Z = _KERNEL_MP.mpc(_KERNEL_MP.mpf(1) / 3, _KERNEL_MP.mpf(2) / 7)


def speed_kernel() -> None:
    """Fixed work that depends on the machine only: an interpreted integer
    loop and 128-bit complex arithmetic, like padwhit's own inner loops."""
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) % 1000003
        pair = (acc, i)  # noqa: F841 -- allocates, as interpreted code does
    z = _KERNEL_Z
    for _ in range(25):
        z = z * _KERNEL_Z + _KERNEL_Z


class Speedometer:
    """Timings of ``speed_kernel`` through the run, to scale operation times
    to the reference speed.

    Inside ``with speedometer:`` a timer signal takes a sample every
    ``SPEED_EVERY_S``, also in the middle of a long operation; ``spent``
    adds up the time samples took, which callers subtract from the
    operation they interrupted.
    """

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, count: int = 1) -> None:
        began = time.perf_counter()
        for _ in range(count):
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                speed_kernel()
                best = min(best, time.perf_counter() - start)
            self.at.append(start)
            self.kernel_s.append(best)
        self.spent += time.perf_counter() - began

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SPEED_EVERY_S, SPEED_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the median speed in [start, end], widened by
        ``SPEED_WINDOW_S`` on each side."""
        lo = bisect.bisect_left(self.at, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SPEED_WINDOW_S)
        window = self.kernel_s[lo:hi] or self.kernel_s
        return REFERENCE_KERNEL_S / statistics.median(window)


def percentile(sorted_values, q: float):
    """Nearest-rank percentile and how many samples lie beyond it."""
    rank = max(math.ceil(q * len(sorted_values)), 1)
    return sorted_values[rank - 1], len(sorted_values) - rank


def _failure(check, inp, out):
    try:
        return check(inp, out)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def measure(wl, seconds: float, speed: Speedometer, max_ops=None, tracer=None):
    """Closed loop: one operation at a time until their summed time reaches
    ``seconds`` (or exactly ``max_ops`` operations, by default
    ``wl.max_ops``).  Returns per operation its seconds, its scaled seconds
    and its work units, the operations kept for ``wl.check`` as
    {index: (input, output)}, the failures as {index: (input, reason)}, and
    the peak resident set in MB when the last operation ended."""
    if max_ops is None:
        max_ops = wl.max_ops
    speed.sample(SPEED_EDGE_SAMPLES)
    elapsed, started, work = array("d"), array("d"), array("q")
    kept, failures = {}, {}
    busy = 0.0
    with speed:
        for i, inp in enumerate(wl.inputs()):
            if max_ops is not None:
                if i >= max_ops:
                    break
            elif i >= wl.min_ops and busy * (i + 1) / i > seconds:
                break
            if tracer is not None:
                tracer.request = i
            spent = speed.spent
            start = time.perf_counter()
            try:
                out, err = wl.run(inp), None
            except Exception as exc:  # a refused or failed operation is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            elapsed.append(time.perf_counter() - start - (speed.spent - spent))
            started.append(start)
            busy += elapsed[-1]
            if err is None:
                if tracer is not None:  # a check's calls are not padwhit's traffic
                    tracer.paused = True
                err = _failure(wl.check_now, inp, out)
                if tracer is not None:
                    tracer.paused = False
            if err is None and wl.defer(inp):
                kept[i] = (inp, out)
            if err is not None:
                failures[i] = (inp, err)
            work.append(0 if err is not None else wl.units(out))
    # Before the deferred checks, which may build what the timed calls never do.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.sample(SPEED_EDGE_SAMPLES)
    scaled = [e * speed.factor(s, s + e) for e, s in zip(elapsed, started)]
    return elapsed, scaled, work, kept, failures, rss_mb


def check_deferred(wl, kept, work, failures) -> None:
    """Run ``wl.check`` on the kept operations; a failure zeroes its work."""
    for i, (inp, out) in kept.items():
        err = _failure(wl.check, inp, out)
        if err is not None:
            failures[i] = (inp, err)
            work[i] = 0


def run_child(args, *extra) -> dict:
    """Run this script in a fresh process and return its last output line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def environment() -> dict:
    """What the numbers depend on besides the code."""
    sources = hashlib.sha256()
    for path in sorted((SRC / "padwhit").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "precision_bits": mpmath.mp.prec,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def _timings(latencies, units: int, q: float):
    lat = sorted(latencies)
    tail, beyond = percentile(lat, q)
    return {"ops_per_s": units / sum(lat), "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail * 1e3}, beyond


def end_to_end(wl, passed, setups, rss_mb: float) -> dict:
    """{name: (scaled value, unit, unscaled value, note)} of every end-to-end
    metric.  ``passed`` holds (seconds, scaled seconds, work units) per
    operation, ``setups`` the seconds of each fresh set-up, and
    ``rss_mb`` is the peak resident set of the timed loop."""
    units = sum(u for _, _, u in passed)
    scaled, beyond = _timings([s for _, s, _ in passed], units, wl.tail)
    raw, _ = _timings([r for r, _, _ in passed], units, wl.tail)
    notes = {
        "ops_per_s": f"{units} {wl.unit_name}",
        "op_p50_ms": f"p50 of {len(passed)}",
        "op_tail_ms": f"p{wl.tail * 100:g} of {len(passed)}, {beyond} beyond",
    }
    units_of = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    setup_s = statistics.median(setups)
    metrics = {"setup_s": (setup_s, "s", setup_s, f"median of {len(setups)} fresh set-ups")}
    for name, note in notes.items():
        label = wl.labels.get(name)
        metrics[name] = (scaled[name], units_of[name], raw[name],
                         f"{label}: {note}" if label else note)
    metrics["peak_rss_mb"] = (rss_mb, "MB", rss_mb,
                              "max resident set of this process up to the last operation")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "padwhit" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'padwhit'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    next(wl.inputs())  # the first input exists before set-up ends
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    speed = Speedometer()

    tracer = None
    if args.trace:
        import tracer as tracing

        # Spans leave out the speed samples that interrupt them.
        tracer = tracing.Tracer(clock=lambda: time.perf_counter() - speed.spent)
        tracer.install()
    try:
        elapsed, scaled, work, kept, failures, rss_mb = measure(
            wl, args.seconds, speed, args.ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    check_deferred(wl, kept, work, failures)
    wl.close()
    attempted = len(elapsed)
    busy = sum(scaled)
    if args.ops is not None:  # the untraced replay; its parent reports failures
        print(json.dumps({"busy_s": busy}))
        return 0

    passed = [(e, s, w) for i, (e, s, w) in enumerate(zip(elapsed, scaled, work))
              if i not in failures]
    if tracer is not None:
        plain = run_child(args, "--ops", str(attempted))["busy_s"]
        metrics = tracer.metrics(busy - plain, (busy - plain) / plain)
        metrics = {k: (v, u, v, f"-> {tracing.prediction(k)}") for k, (v, u) in metrics.items()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    elif passed:
        setups = [run_child(args, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        metrics = end_to_end(wl, passed, setups + [setup_s], rss_mb)
    else:
        metrics = {}

    print(f"{args.workload} seed {args.seed}: {attempted} ops, {len(failures)} failed "
          f"(failed_frac {len(failures) / max(attempted, 1):.4f}), trace {args.trace}")
    for inp, err in failures.values():
        print(f"  FAILED {workloads.describe(inp)}: {err}")
    for name, (value, unit, raw, note) in metrics.items():
        unscaled = f"(unscaled {raw:.6g}) " if raw != value else ""
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {unscaled}{note}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=environment(),
                  unscaled={k: raw for k, (_, _, raw, _) in metrics.items()},
                  failures=[[workloads.describe(i), e] for i, e in failures.values()])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
