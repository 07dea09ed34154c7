"""The benchmark's four workloads.

Each workload builds its static inputs from the seed when it is constructed
(that is set-up), then hands out one input per operation.  ``run`` is the
timed call into padwhit's public API.  ``check_now`` runs right after each
operation, untimed, and must not warm a cache that a later operation would
use; ``check`` runs after the timed loop on the operations ``defer`` keeps,
so checking neither warms such a cache nor shows up in a latency, and
outputs that need no later check are not held in memory.

Timed calls go through module attributes (``engine.sup_norm``), where the
tracer finds them.  Importing this module needs ``padwhit`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import islice
from pathlib import Path

from mpmath import mp, mpf

from padwhit import (
    Mat2,
    PAdicApprox,
    Representative,
    characters,
    characters_mod,
    cli,
    engine,
    epsilon_factor,
    gauss_sum_closed,
    standard_family,
    theorem_refs,
    unit_group,
    verify,
    whittaker_value,
)

TWO_THIRDS = mpf(2) / 3
SQRT2 = mp.sqrt(2)
SLACK = mpf("1e-12")  # the acceptance gate's slack on the sup-norm sandwich


def _unit(rng: random.Random, p: int, e: int) -> int:
    """A uniform unit residue modulo p^e (1 when e = 0)."""
    while True:
        u = rng.randrange(1, max(p**e, 2))
        if u % p:
            return u


def stratified_order(items, stratum, rng: random.Random) -> list:
    """Every item once, interleaved so that each prefix holds the strata in
    about their population shares.  A run that stops after any number of
    operations therefore samples the same mix, whatever the speed."""
    groups: dict = {}
    for item in items:
        groups.setdefault(stratum(item), []).append(item)
    keyed = []
    for key in sorted(groups):
        members = groups[key]
        rng.shuffle(members)
        offset = rng.random()
        keyed += [((i + offset) / len(members), key, item)
                  for i, item in enumerate(members)]
    keyed.sort(key=lambda e: (e[0], e[1]))
    return [item for _, _, item in keyed]


def _stratum(rep):
    # Cost follows the prime, the conductor, the kind of descriptor, the
    # central conductor and whether an L-factor is trivial.
    return rep.p, rep.n, type(rep).__name__, rep.m, rep.has_trivial_lfactor


def describe(inp) -> str:
    """Stable text of one input, used for digests and failure reports."""
    if isinstance(inp, tuple):
        return "(" + ", ".join(describe(x) for x in inp) + ")"
    spec = getattr(inp, "spec_string", None)
    return spec() if spec else repr(inp)


class Workload:
    name = ""
    tail = 0.5  # percentile reported as op_tail_ms
    min_ops = 1  # enough to leave ten samples beyond the tail percentile
    max_ops = None  # when set, exactly this many operations, whatever --seconds
    unit_name = "ops"
    labels: dict = {}  # end-to-end metric -> its name for this workload

    def inputs(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check_now(self, inp, out) -> str | None:
        """Check that needs no padwhit call: None, or why ``out`` is wrong."""
        return None

    def defer(self, inp) -> bool:
        """Keep (input, output) for ``check`` after the timed loop."""
        return True

    def check(self, inp, out) -> str | None:
        """None when ``out`` is right for ``inp``, else the reason."""
        raise NotImplementedError

    def units(self, out) -> int:
        """Work units one operation completed, for ops_per_s."""
        return 1

    def close(self) -> None:
        pass

    def digest(self, count: int) -> str:
        text = "\n".join(describe(x) for x in islice(self.inputs(), count))
        return hashlib.sha256(text.encode()).hexdigest()


class SupnormScan(Workload):
    """Certified sup-norms over standard_family(3, 6) and standard_family(5, 4)."""

    name = "supnorm-scan"
    tail = 0.95
    min_ops = 200
    labels = {"op_p50_ms": "supnorm_p50_ms", "op_tail_ms": "supnorm_p95_ms"}

    def __init__(self, seed: int, out_dir: Path):
        family = standard_family(3, 6) + standard_family(5, 4)
        self.order = stratified_order(family, _stratum, random.Random(seed))

    def inputs(self):
        return iter(self.order)

    def run(self, rep):
        return engine.sup_norm(rep)

    def check(self, rep, res):
        if not res.certified:
            return "not certified"
        low = TWO_THIRDS * res.lower_ref - SLACK
        high = SQRT2 * res.upper_ref + SLACK
        if not low <= res.h <= high:
            return f"h={mp.nstr(res.h, 12)} outside [{mp.nstr(low, 12)}, {mp.nstr(high, 12)}]"
        at_witness = abs(whittaker_value(rep, res.witness))
        if abs(at_witness - res.h) > mpf("1e-20"):
            return f"|W(witness)|={mp.nstr(at_witness, 25)} != h={mp.nstr(res.h, 25)}"
        return None


class PointValues(Workload):
    """Point requests on ~300 conductor <= 4 descriptors through the default
    route: 80% triples (t, k, v), 20% matrices through reduce_matrix."""

    name = "point-values"
    # About 1% of operations solve a cold table, so p99 falls on the edge
    # between the two populations; p99.9 lies among the cold solves.
    tail = 0.999
    min_ops = 10_000
    labels = {"op_p50_ms": "value_p50_ms", "op_tail_ms": "value_p999_ms"}
    P5_SAMPLE = 200
    MATRIX_SHARE = 0.2
    # Seeded subset of the triples that take the Atkin-Lehner route, checked
    # against direct=True; a direct column solve above n/2 costs up to ~1 s.
    CROSS_CHECK_SHARE = 0.02
    CROSS_CHECKS = 12
    DIGITS = 30  # p-adic digits of matrix entries; each entry is exact in them

    def __init__(self, seed: int, out_dir: Path):
        # The descriptors are the same for every seed, so each run solves the
        # same tables; the seed drives the request stream.
        p5 = stratified_order(standard_family(5, 4), _stratum, random.Random(0))
        self.reps = standard_family(2, 4) + standard_family(3, 4) + p5[:self.P5_SAMPLE]
        self.seed = seed
        self.bounds = {rep: SQRT2 * theorem_refs(rep)[1] + SLACK for rep in self.reps}

    def _matrix(self, rng: random.Random, p: int) -> Mat2:
        while True:
            entries = [0 if rng.random() < 0.1
                       else p ** rng.randint(-2, 2) * _unit(rng, p, 8)
                       for _ in range(4)]
            if entries[0] * entries[3] != entries[1] * entries[2]:
                return Mat2.from_rationals(p, entries, self.DIGITS)

    def inputs(self):
        rng = random.Random(f"point-values/{self.seed}")
        crosses = 0
        while True:
            rep = rng.choice(self.reps)
            if rng.random() < self.MATRIX_SHARE:
                yield rep, self._matrix(rng, rep.p), False
                continue
            k = rng.randint(0, rep.n)
            t = rng.randint(-k - rep.n, rep.n)
            v = _unit(rng, rep.p, k)
            cross = (2 * k > rep.n and crosses < self.CROSS_CHECKS
                     and rng.random() < self.CROSS_CHECK_SHARE)
            crosses += cross
            yield rep, Representative(t, k, v), cross

    def run(self, inp):
        rep, point, _ = inp
        if isinstance(point, Mat2):
            psi, omega, r = engine.reduce_matrix(rep, point)
            return (psi * omega).embed() * engine.whittaker_value(rep, r)
        return engine.whittaker_value(rep, point)

    def check_now(self, inp, out):
        if abs(out) > self.bounds[inp[0]]:
            return f"|W|={mp.nstr(abs(out), 12)} above sqrt(2) upper_ref"
        return None

    def defer(self, inp):
        return inp[2]

    def check(self, inp, out):
        rep, point, _ = inp
        direct = whittaker_value(rep, point, direct=True)
        if abs(direct - out) > mpf("1e-12"):
            return f"default route differs from direct by {mp.nstr(abs(direct - out), 5)}"
        return None


class Gl1Constants(Workload):
    """Character products, first-time epsilon factors, Gauss sums and
    epsilon pair sums at p in {3, 5, 7}; the engine does no work here."""

    name = "gl1-constants"
    tail = 0.99
    min_ops = 1000
    labels = {"op_p50_ms": "gl1_p50_ms", "op_tail_ms": "gl1_p99_ms"}
    MAX_CONDUCTOR = {3: 4, 5: 3, 7: 3}
    PAIR_LEVEL = 2  # pair sums over exact conductor 2, twisted by conductor 1
    # Operation weights are padwhit's own GL(1) traffic: the call counts in
    # the traced runs (seed 301) of supnorm-scan, point-values and
    # verify-suite at commit f68745b.  Character products: 28,888 + 82,644 +
    # 61,992; first-time epsilon factors (epsilon_factor misses): 984 + 559 +
    # 60; Gauss sums beyond those that epsilon_factor makes: 0 + 0 + 308;
    # pair sums: 0 + 0 + 204.
    MIX = (("mul", 173_524), ("eps", 1_603), ("gauss", 308), ("pair", 204))

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.chars = {p: characters_mod(p, a) for p, a in self.MAX_CONDUCTOR.items()}
        self.twists = {p: [c for c in characters_mod(p, 1) if c.conductor == 1]
                       for p in self.MAX_CONDUCTOR}
        # Pair sums compute every conductor-2 epsilon factor, so first-time
        # epsilon factors come from the other conductors.
        self.fresh = [mu for p in self.MAX_CONDUCTOR for mu in self.chars[p]
                      if mu.conductor not in (0, self.PAIR_LEVEL)]

    def inputs(self):
        rng = random.Random(f"gl1-constants/{self.seed}")
        fresh = list(self.fresh)
        rng.shuffle(fresh)
        kinds = [k for k, _ in self.MIX]
        weights = [w for _, w in self.MIX]
        primes = sorted(self.MAX_CONDUCTOR)
        while True:
            p = rng.choice(primes)
            kind = rng.choices(kinds, weights)[0]
            if kind == "gauss":
                mu = rng.choice(self.chars[p])
                t = rng.randint(-mu.conductor - 1, 1)
                x = PAdicApprox(p, t, _unit(rng, p, 8), self.MAX_CONDUCTOR[p] + 4)
                yield "gauss", x, mu
            elif kind == "mul":
                yield "mul", rng.choice(self.chars[p]), rng.choice(self.chars[p])
            elif kind == "pair":
                chi = rng.choice(self.twists[p])
                yield "pair", p, self.PAIR_LEVEL, chi, _unit(rng, p, self.PAIR_LEVEL)
            else:
                # Once every character has been asked for, repeats hit the cache.
                yield "eps", fresh.pop() if fresh else rng.choice(self.fresh)

    def run(self, op):
        kind = op[0]
        if kind == "gauss":
            return characters.gauss_sum(op[1], op[2])
        if kind == "mul":
            return op[1] * op[2]
        if kind == "pair":
            return verify.pair_sum(*op[1:])
        return characters.epsilon_factor(op[1])

    def check_now(self, op, out):
        # Products are checked at once, so the many of them are not held in
        # memory.  The unit groups and their dlog tables this reads were all
        # built by set-up or by the product itself, so nothing is warmed.
        if op[0] != "mul":
            return None
        mu, nu = op[1], op[2]
        if out.conductor > max(mu.conductor, nu.conductor):
            return f"product conductor {out.conductor} too large"
        # A character is fixed by its values on the generators.
        level = max(mu.conductor, nu.conductor, 1)
        for g, _ in unit_group(mu.p, level).generators:
            if out.eval_unit(g) != mu.eval_unit(g) * nu.eval_unit(g):
                return f"product wrong at unit {g}"
        return None

    def defer(self, op):
        return op[0] != "mul"

    def check(self, op, out):
        kind = op[0]
        if kind == "gauss":
            closed = gauss_sum_closed(op[1], op[2])
            if abs(out - closed) > mpf("1e-20"):
                return f"gauss_sum differs from closed form by {mp.nstr(abs(out - closed), 5)}"
        elif kind == "pair":
            return _pair_sum_dichotomy(op[1], op[2], op[3], op[4], out)
        else:
            mu = op[1]
            if abs(abs(out) - 1) > mpf("1e-20"):
                return f"|eps|={mp.nstr(abs(out), 25)}"
            duality = out * epsilon_factor(mu.inverse()) - mu.at_minus_one().embed()
            if abs(duality) > mpf("1e-20"):
                return f"eps(mu) eps(mu^-1) != mu(-1) by {mp.nstr(abs(duality), 5)}"
        return None


def _pair_sum_dichotomy(p, r, chi, v, value):
    """|pair sum| is zeta(1)^-1 q^(r - r'/2) when v(v + 1) = r - r', else 0."""
    rp = chi.conductor
    w, val = v + 1, 0
    while w % p == 0:
        w //= p
        val += 1
    want = (1 - mpf(1) / p) * mp.power(p, r - mpf(rp) / 2) if val == r - rp else mpf(0)
    if abs(abs(value) - want) > mpf("1e-18"):
        return f"|pair sum|={mp.nstr(abs(value), 20)}, want {mp.nstr(want, 20)}"
    return None


class VerifySuite(Workload):
    """``padwhit verify --suite all --p 2,3 --amax 3 --nmax 4``; the seed is
    unused.  One operation is one whole suite on cold caches, so a run holds
    exactly one, whatever ``--seconds`` says."""

    name = "verify-suite"
    tail = 0.5  # one operation per run: its wall time
    max_ops = 1
    unit_name = "cases"
    labels = {"op_p50_ms": "verify_wall", "op_tail_ms": "verify_wall"}
    ARGV = ("verify", "--suite", "all", "--p", "2,3", "--amax", "3", "--nmax", "4")

    def __init__(self, seed: int, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest = out_dir / f"verify-manifest-{seed}.json"

    def inputs(self):
        yield list(self.ARGV) + ["--out", str(self.manifest)]

    def run(self, argv):
        with contextlib.redirect_stderr(io.StringIO()):  # one status line per check
            code = cli.main(argv)
        return code, json.loads(self.manifest.read_text())["checks"]

    def check(self, argv, out):
        code, checks = out
        failed = [c["check_id"] for c in checks if not c["passed"]]
        if code != 0 or failed or not checks:
            return f"exit code {code}, failed checks {failed[:5]}"
        return None

    def units(self, out):
        return sum(c["cases"] for c in out[1])

    def close(self):
        self.manifest.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (SupnormScan, PointValues, Gl1Constants, VerifySuite)}
