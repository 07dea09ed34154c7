"""Batch command-line frontend.

Subcommands:

* ``value``  -- one newvector value at a representative triple;
* ``scan``   -- sup-norm rows for a descriptor family, to CSV or JSON;
* ``verify`` -- run the verification suite and exit nonzero on failure.

Outputs are deterministic: identical inputs produce byte-identical files
(wall-clock timing columns are left empty unless ``--timings`` is given).
Exit codes: 0 ok, 1 check or certification failure, 2 usage error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import tempfile
import textwrap
import time

from mpmath import mp, mpf

from . import __version__
from .characters import format_char, parse_unit_char
from .engine import Representative, scan_partner, sup_norm, whittaker_value
from .numerics import perturb_epsilon, set_precision
from .representations import (
    Representation,
    parse_rep,
    standard_family,
)
from .verify import manifest, run_suite

SCHEMA_VERSION = 1

SCAN_COLUMNS = [
    "p", "n", "m", "type", "spec", "h", "witness_t", "witness_k", "witness_v",
    "lower_ref", "upper_ref", "ratio_lower", "ratio_upper", "certified",
    "t_max", "lindelof_exponent", "wall_time",
]


class UsageError(ValueError):
    pass


def _fmt(x, digits: int = 24) -> str:
    return mp.nstr(mpf(x), digits, strip_zeros=True)


def _rep_from_args(args) -> Representation:
    given = [name for name in ("ps", "st", "sc") if getattr(args, name, None)]
    if len(given) != 1:
        raise UsageError("exactly one of --ps / --st / --sc is required")
    kind = given[0]
    if kind == "sc":
        if not args.oracle:
            raise UsageError("--sc needs --oracle FILE with the twist data")
        rep = parse_rep("sc", args.sc, oracle=args.oracle)
        _check_sc_payload(args.sc, rep)
        return rep
    return parse_rep(kind, getattr(args, kind), p=args.p)


def _check_sc_payload(payload: str, rep) -> None:
    """--sc n,CHAR must agree with the oracle file contents."""
    parts = payload.split(",", 1)
    if len(parts) != 2:
        raise UsageError("--sc expects 'n,CHAR' (conductor exponent and "
                         "central character)")
    try:
        n = int(parts[0])
        omega = parse_unit_char(parts[1], rep.p)
    except ValueError as exc:
        raise UsageError(str(exc))
    if n != rep.n or omega != rep.omega:
        raise UsageError(
            f"--sc {payload!r} disagrees with the oracle "
            f"(n={rep.n}, omega={format_char(rep.omega)})"
        )


def cmd_value(args) -> int:
    rep = _rep_from_args(args)
    r = Representative(args.t, args.k, args.v)
    if not 0 <= args.k <= rep.n:
        raise UsageError(f"k={args.k} outside the representative domain [0, {rep.n}]")
    if args.v % rep.p == 0:
        raise UsageError(f"v={args.v} is not a unit at p={rep.p}")
    used_reduction = 2 * r.k > rep.n
    value = whittaker_value(rep, r)
    print(f"representation: {rep.spec_string()}  (n={rep.n}, m={rep.m})")
    print(f"representative: t={r.t} k={r.k} v={r.v}")
    print(f"value: {mp.nstr(value, 20)}")
    print(f"modulus: {_fmt(abs(value), 20)}")
    print(f"atkin_lehner_reduction: {'yes' if used_reduction else 'no'}")
    return 0


def _scan_row(rep: Representation, timings: bool,
              tolerance: float = 1e-9) -> dict:
    start = time.monotonic()
    res = sup_norm(rep, tolerance=mpf(tolerance))
    elapsed = time.monotonic() - start
    kind = {"PrincipalSeries": "ps", "SteinbergTwist": "st"}.get(
        type(rep).__name__, "sc")
    n = rep.n
    h = _fmt(res.h)
    # log_q of the printed h, so that h = 1 prints 0.0 and no residue.
    lind = mp.log(mpf(h)) / (n * mp.log(rep.p)) if n else mpf(0)
    return {
        "p": rep.p,
        "n": n,
        "m": rep.m,
        "type": kind,
        "spec": rep.spec_string(),
        "h": h,
        "witness_t": res.witness.t,
        "witness_k": res.witness.k,
        "witness_v": res.witness.v,
        "lower_ref": _fmt(res.lower_ref),
        "upper_ref": _fmt(res.upper_ref),
        "ratio_lower": _fmt(res.h / res.lower_ref),
        "ratio_upper": _fmt(res.h / res.upper_ref),
        "certified": str(bool(res.certified)).lower(),
        "t_max": res.t_max,
        "lindelof_exponent": _fmt(lind, 12),
        "wall_time": f"{elapsed:.3f}" if timings else "",
    }


def _sort_key(rep: Representation):
    return (rep.p, rep.n, rep.m, rep.spec_string())


def cmd_scan(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise UsageError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    reps: list[Representation] = []
    for p in args.p:
        reps.extend(standard_family(p, args.nmax, args.family))
    if args.conjecture_regime:
        reps = [r for r in reps if 2 * r.m <= r.n + 1]
    reps.sort(key=_sort_key)
    with _open_output(args.out) as fh:
        _write_rows(fh, _scan_rows(reps, args), args.format)
    return 0


def _scan_rows(reps, args):
    """The rows of ``reps`` in order, each once made; ``--jobs`` workers take
    a descriptor with its scan partner (:func:`_scan_tasks`)."""
    if args.jobs == 1 or len(reps) < 2:
        yield from (_scan_row(rep, args.timings, args.tolerance) for rep in reps)
        return
    from concurrent.futures import ProcessPoolExecutor

    tasks = _scan_tasks(reps)
    payload = [([reps[i].spec_string() for i in task], args.timings, args.tolerance,
                mp.prec) for task in tasks]
    pending, first = {}, 0
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        for task, rows in zip(tasks, pool.map(_scan_rows_from_specs, payload)):
            pending.update(zip(task, rows))
            while first in pending:
                yield pending.pop(first)
                first += 1


def _scan_tasks(reps) -> list:
    """Indices into ``reps`` for the workers, a descriptor with its
    :func:`scan_partner` when that is in ``reps``, by first index."""
    where, tasks = {rep: i for i, rep in enumerate(reps)}, []
    for i, rep in enumerate(reps):
        j = where.get(scan_partner(rep))
        if j is None or j > i:
            tasks.append((i,) if j is None else (i, j))
    return tasks


def _scan_rows_from_specs(item) -> list:
    specs, timings, tolerance, prec = item
    set_precision(prec)
    return [_scan_row(parse_rep(*spec.split(":", 1)), timings, tolerance)
            for spec in specs]


def _write_rows(fh, rows, fmt: str) -> None:
    """Write ``rows`` to ``fh`` as each comes, in the bytes of rendering the
    whole CSV, or JSON document by ``json.dumps(indent=2, sort_keys=True)``."""
    if fmt == "csv":
        writer = csv.DictWriter(fh, fieldnames=SCAN_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return
    doc = {"schema_version": SCHEMA_VERSION, "rows": [], "checks": [],
           "params": {"tool": "padwhit", "version": __version__}}
    head, tail = json.dumps(doc, indent=2, sort_keys=True).split('"rows": []')
    fh.write(head + '"rows": [')
    sep = "\n"
    for row in rows:
        fh.write(sep + textwrap.indent(json.dumps(row, indent=2, sort_keys=True), "    "))
        sep = ",\n"
    fh.write(("]" if sep == "\n" else "\n  ]") + tail + "\n")


@contextlib.contextmanager
def _open_output(path: str | None):
    """Standard output for no path or "-", else a temp file renamed onto ``path``."""
    if not path or path == "-":
        yield sys.stdout
        sys.stdout.flush()  # a closed pipe raises here, inside main
        return
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".padwhit-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_verify(args) -> int:
    suites = ("gl1", "representation", "main") if args.suite == "all" else (args.suite,)
    if not (math.isfinite(args.perturb_eps) and args.perturb_eps > -1):
        raise UsageError(f"--perturb-eps must be finite and > -1, got {args.perturb_eps}")
    with perturb_epsilon(args.perturb_eps):
        reports = run_suite(tuple(args.p), args.amax, args.nmax, suites)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": {
            "p": list(args.p),
            "amax": args.amax,
            "nmax": args.nmax,
            "suites": list(suites),
            "perturb_eps": args.perturb_eps,
        },
        "rows": [],
        "checks": manifest(reports),
    }
    with _open_output(args.out) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    failed = [r.check_id for r in reports if not r.passed]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.check_id}: {r.cases} cases, "
              f"max dev {mp.nstr(r.max_deviation, 6)} ({r.family})",
              file=sys.stderr)
    return 1 if failed else 0


def _int_list(text: str) -> list[int]:
    values = [int(x) for x in text.split(",") if x]
    if not values or len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"expected distinct primes, got {text!r}")
    return values


def _count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padwhit",
        description="Exact p-adic Whittaker newvector values and sup-norms",
    )
    ap.add_argument("--precision-bits", type=int, default=128,
                    help="binary working precision (default 128)")
    sub = ap.add_subparsers(dest="command", required=True)

    common_rep = argparse.ArgumentParser(add_help=False)
    common_rep.add_argument("--p", type=int, default=None,
                            help="expected residue characteristic (sanity check)")
    common_rep.add_argument("--ps", help="principal series: CHAR,CHAR")
    common_rep.add_argument("--st", help="Steinberg twist: CHAR")
    common_rep.add_argument("--sc", help="supercuspidal: n,CHAR (with --oracle)")
    common_rep.add_argument("--oracle", help="supercuspidal twist-data JSON file")

    ap_value = sub.add_parser("value", parents=[common_rep],
                              help="evaluate the newvector at one representative")
    ap_value.add_argument("--t", type=int, required=True)
    ap_value.add_argument("--k", type=int, required=True)
    ap_value.add_argument("--v", type=int, default=1)
    ap_value.set_defaults(func=cmd_value)

    ap_scan = sub.add_parser("scan", help="sup-norm scan over a family")
    ap_scan.add_argument("--p", type=_int_list, required=True,
                         help="comma-separated primes")
    ap_scan.add_argument("--nmax", type=_count, required=True)
    ap_scan.add_argument("--family", choices=("ps", "steinberg", "all"),
                         default="all")
    ap_scan.add_argument("--conjecture-regime", action="store_true",
                         help="keep only m <= ceil(n/2) rows")
    ap_scan.add_argument("--tolerance", type=float, default=1e-9,
                         help="consistency guard: fail if the sup-norm h is below "
                              "1 - TOLERANCE (does not affect certification)")
    ap_scan.add_argument("--jobs", type=int, default=1)
    ap_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    ap_scan.add_argument("--timings", action="store_true",
                         help="fill wall_time, each row's sup_norm call: a pair's second "
                              "member only reads the first's scan (breaks byte determinism)")
    ap_scan.add_argument("--out", default="-")
    ap_scan.set_defaults(func=cmd_scan)

    ap_verify = sub.add_parser("verify", help="run the verification suite")
    ap_verify.add_argument("--suite", choices=("gl1", "representation", "main", "all"),
                           default="all")
    ap_verify.add_argument("--p", type=_int_list, default=[2, 3, 5])
    ap_verify.add_argument("--amax", type=_count, default=3)
    ap_verify.add_argument("--nmax", type=_count, default=3)
    ap_verify.add_argument("--perturb-eps", type=float, default=0.0,
                           help="inject a relative epsilon error (harness canary)")
    ap_verify.add_argument("--out", default="-")
    ap_verify.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        set_precision(args.precision_bits)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader of standard output stopped, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
