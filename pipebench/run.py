"""Pipeline benchmark for agt.

    python3 pipebench/run.py --workload {derive,query,kb,coxeter} \
        --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout: the library is imported from ./src.
One process, one thread, a closed loop with a single caller: each call
starts when the previous one has returned.  The run sets up the
workload at least three times (the median is ``setup_s``), then makes passes over
its inputs until the time budget is spent.  Times are rescaled to a
reference speed (see ``Speed``).  Every answer is checked:
the first pass against the oracles, every later pass byte for byte
against the first.  A wrong answer, an exception, an abandoned
derivation or a pass that differs counts as a failed operation; the run
goes on and reports it.

With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` half of the budget runs untraced
and half with every layer wrapped (see tracing.py), and the last line
holds the per-layer metrics.  Lines before it give workload details.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Timing  # noqa: E402

AGT_MODULES = ("autostruct", "cli", "coxeter", "cyclotomic", "formats", "fsa",
               "groupcalc", "limits", "pairfsa", "rewrite", "worddiff")
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S has passed
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 15
CALIBRATE_EVERY_S = 0.2
REFERENCE_CAL_S = 0.004  # the reference speed: calibrate() takes exactly this long


def calibrate() -> float:
    """Time a fixed piece of interpreter work (about 4 ms on an idle core)."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(40_000):
        d[i % 97] = d.get(i % 97, 0) + i
    return time.perf_counter() - t0


class Speed:
    """The machine's speed over time, sampled with ``calibrate``.

    On a shared machine the speed of a core can drift by up to a factor
    of two within seconds.  While the context is open, a timer signal
    runs the calibration every CALIBRATE_EVERY_S seconds, in this thread
    between two bytecodes of whatever is running.  A timed call is
    rescaled by the calibrations taken while it ran and the nearest one
    on each side, so results are seconds at a fixed reference speed;
    the time of the calibrations themselves (``spent``) is not counted.
    """

    def __init__(self):
        self.times = array("d")  # when each calibration ended
        self.cals = array("d")
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        cal = calibrate()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.cals.append(cal)
        self.spent += t1 - t0

    def __enter__(self) -> "Speed":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed per second measured in [t0, t1];
        needs a calibration taken after t1."""
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        cals = self.cals[lo : bisect.bisect_right(self.times, t1) + 1]
        return REFERENCE_CAL_S * len(cals) / sum(cals)


def import_agt() -> SimpleNamespace:
    """Import the library afresh from the checkout (part of set-up)."""
    for name in [k for k in sys.modules if k == "agt" or k.startswith("agt.")]:
        del sys.modules[name]
    ns = SimpleNamespace(**{m: importlib.import_module(f"agt.{m}") for m in AGT_MODULES})
    if Path(ns.autostruct.__file__).resolve().parent != ROOT / "src" / "agt":
        raise SystemExit(f"pipebench: imported agt from {ns.autostruct.__file__}, not {ROOT / 'src'}")
    return ns


class Runner:
    def __init__(self, workload, speed: Speed):
        self.w = workload
        self.speed = speed
        self.tracer: Tracer | None = None
        self.reference: list[bytes | None] | None = None
        self.bad: set[int] = set()  # operations answered wrongly in the first pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.check_s = 0.0  # time spent checking answers, outside the budget
        self.raw_walls: list[float] = []  # unscaled seconds per pass

    def fail(self, op: Op, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(f"{op.entry}/{op.kind}: {message}")

    def run_pass(self, ns) -> list[Timing]:
        """One pass; returns each call's seconds at the reference speed."""
        ops = self.w.ops(ns)
        first = self.reference is None
        if first:
            self.reference = [None] * len(ops)
        elif len(ops) != len(self.reference):
            raise RuntimeError("the workload changed its operations between passes")
        timed: list[tuple[float, float, float]] = []  # start, end, seconds of each call
        spans: list[tuple[int, int]] = []  # each call's range of trace spans
        clock = time.perf_counter
        tracer, speed = self.tracer, self.speed
        for i, op in enumerate(ops):
            self.attempted += op.size
            if tracer is not None:
                first_span = len(tracer.span_start)
                tracer.active = True
            t0 = clock()
            sampling = speed.spent
            try:
                out = op.call()
                err = None
            except Exception as exc:  # a failed operation: recorded, the run goes on
                out, err = None, "".join(traceback.format_exception_only(exc)).strip()
            sampling = speed.spent - sampling
            t1 = clock()
            if tracer is not None:
                tracer.active = False
                spans.append((first_span, len(tracer.span_start)))
            timed.append((t0, t1, t1 - t0 - sampling))
            if err is not None:
                self.fail(op, op.size, err)
                continue
            t0 = clock()
            try:
                digest = op.digest(out)
                if first:
                    self.reference[i] = digest
                    op.check(out)
            except Exception as exc:  # a wrong answer fails in every pass
                self.bad.add(i)
                self.fail(op, op.size, str(exc) if isinstance(exc, oracles.OracleMismatch)
                          else f"checking raised {type(exc).__name__}: {exc}")
                continue
            finally:
                self.check_s += clock() - t0
            if i in self.bad:
                self.fail(op, op.size, "the first pass answered wrongly")
            elif digest != self.reference[i]:
                self.fail(op, op.size, "answer differs from the first pass")
        speed.sample()  # a calibration after the last call
        records = []
        for i, (op, (t0, t1, dt)) in enumerate(zip(ops, timed)):
            f = speed.factor(t0, t1)
            records.append(Timing(op.entry, op.kind, dt * f))
            if tracer is not None:
                tracer.rescale(*spans[i], f)
        self.raw_walls.append(sum(dt for _, _, dt in timed))
        return records

    def run_passes(self, ns, budget: float, min_passes: int) -> list[list[Timing]]:
        passes = []
        start = time.perf_counter() - self.check_s
        while True:
            passes.append(self.run_pass(ns))
            elapsed = time.perf_counter() - self.check_s - start
            if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > budget:
                return passes


def pass_wall(records) -> float:
    return sum(t.seconds for t in records)


def entry_medians(workload, passes) -> dict[str, float]:
    return {
        e: statistics.median(sum(t.seconds for t in r if t.entry == e) for r in passes)
        for e in workload.entries
    }


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(workload, setups, passes) -> dict:
    medians = entry_medians(workload, passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(medians.values()), "s"),
        "geomean_s": (geomean(medians.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


PER_ENTRY = {
    "derive": WORKLOADS["derive"].FULL,
    "coxeter": WORKLOADS["coxeter"].FULL,
}


def per_layer(workload, tracer: Tracer, traced, untraced, error_rate: float) -> dict:
    n = len(traced)
    self_s = tracer.self_times()
    calls, sums = tracer.calls, tracer.sums

    def s(name):
        return (self_s.get(name, 0.0) / n, "s")

    def c(name, table=calls):
        return (table.get(name, 0) / n, "count")

    hits, mults = sums.get("groupcalc.memo_hits", 0), calls.get("groupcalc.multiply", 0)
    processed, added = sums.get("rewrite.pairs_processed", 0), sums.get("rewrite.rules_added", 0)
    extra = workload.layer_counters()
    m = {
        "rewrite.Completion.run.self_s": s("rewrite.Completion.run"),
        "rewrite.RewriteSystem.reduce.calls": c("rewrite.RewriteSystem.reduce"),
        "rewrite.pairs_processed": c("rewrite.pairs_processed", sums),
        "rewrite.rules_added": c("rewrite.rules_added", sums),
        "rewrite.useful_ratio": (added / processed if processed else 0.0, "ratio"),
        "worddiff.accumulate_from_rules.self_s": s("worddiff.accumulate_from_rules"),
        "worddiff.states": c("worddiff.states", sums),
        "worddiff.k": (tracer.peaks.get("worddiff.k", 0), "count"),
    }
    for f in ("build_candidate_word_acceptor", "build_multiplier", "elementary_checks", "axiom_check"):
        m[f"autostruct.{f}.self_s"] = s(f"autostruct.{f}")
    for k in ("passes", "elementary_failures", "wa_states", "multiplier_states"):
        m[f"autostruct.{k}"] = c(f"autostruct.{k}", sums)
    m.update({
        "pairfsa.compose.self_s": s("pairfsa.compose"),
        "pairfsa.compose.calls": c("pairfsa.compose"),
        "pairfsa.compose.states_out": c("pairfsa.compose.states_out", sums),
        "pairfsa.partners.self_s": s("pairfsa.partners"),
        "pairfsa.partners.calls": c("pairfsa.partners"),
        "pairfsa.slice_first.self_s": s("pairfsa.slice_first"),
        "pairfsa.project.self_s": s("pairfsa.project"),
        "fsa.minimize.self_s": s("fsa.minimize"),
        "fsa.minimize.calls": c("fsa.minimize"),
        "fsa.minimize.states_in": c("fsa.minimize.states_in", sums),
        "fsa.minimize.states_out": c("fsa.minimize.states_out", sums),
        "fsa.determinize.self_s": s("fsa.determinize"),
        "fsa.dfa_constructed": c("fsa.dfa_constructed"),
        "fsa.enumerate_words.self_s": s("fsa.enumerate_words"),
        "fsa.growth_series.self_s": s("fsa.growth_series"),
        "groupcalc.normal_form.self_s": s("groupcalc.normal_form"),
        "groupcalc.multiply.calls": c("groupcalc.multiply"),
        "groupcalc.memo_hit_ratio": (hits / mults if mults else 0.0, "ratio"),
        "groupcalc.memo_entries": (extra.get("groupcalc.memo_entries", 0), "count"),
        "groupcalc.cone_types.self_s": s("groupcalc.cone_types"),
        "cyclotomic.mul.calls": c("cyclotomic.mul"),
        "cyclotomic.sign.calls": c("cyclotomic.sign"),
        "cyclotomic.self_s": (sum(v for k, v in self_s.items() if k.startswith("cyclotomic.")) / n, "s"),
        "coxeter.small_roots.self_s": s("coxeter.small_roots"),
        "coxeter.small_roots.calls": c("coxeter.small_roots"),
        "coxeter.acceptor.self_s": s("coxeter.acceptor"),
        "coxeter.roots": c("coxeter.roots", sums),
        "formats.save_structure.self_s": s("formats.save_structure"),
        "formats.load_structure.self_s": s("formats.load_structure"),
        "formats.load_structure.calls": c("formats.load_structure"),
        "cli.main.self_s": s("cli.main"),
    })
    for wname, names in PER_ENTRY.items():
        medians = entry_medians(workload, untraced) if workload.name == wname else {}
        for e in names:
            m[f"{wname}.{e}.s"] = (medians.get(e, 0.0), "s")
    walls = statistics.median(pass_wall(r) for r in traced), statistics.median(pass_wall(r) for r in untraced)
    m["trace.overhead_frac"] = (walls[0] / walls[1] - 1, "ratio")
    m["error_rate"] = (error_rate, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="agt pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "agt" / "__init__.py").is_file():
        print(f"pipebench: no library at {ROOT / 'src' / 'agt'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".pipebench_tmp" / str(os.getpid())
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args, workdir: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    with Speed() as speed:
        setups = []  # start, end, seconds of each set-up
        try:
            while not setups or not args.tiny and (
                len(setups) < SETUP_REPEATS
                or sum(dt for _, _, dt in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
            ):
                t0 = time.perf_counter()
                sampling = speed.spent
                ns = import_agt()
                workload.prepare(ns)
                sampling = speed.spent - sampling
                t1 = time.perf_counter()
                setups.append((t0, t1, t1 - t0 - sampling))
        except Exception as exc:  # SetupError or a failure inside agt
            print(f"pipebench: set-up failed: {exc}", file=sys.stderr)
            traceback.print_exc()
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 0
        speed.sample()
        setups = [dt * speed.factor(t0, t1) for t0, t1, dt in setups]

        runner = Runner(workload, speed)
        if args.trace:
            untraced = runner.run_passes(ns, args.seconds / 2, 1)
            runner.tracer = tracer = Tracer()
            tracer.install()
            try:
                traced = runner.run_passes(ns, args.seconds / 2, 1)
            finally:
                tracer.uninstall()
            passes = untraced + traced
        else:
            passes = runner.run_passes(ns, args.seconds, 2)

    timed = untraced if args.trace else passes
    error_rate = runner.failed / runner.attempted
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "ops_per_pass": len(passes[0]),
              "entries_s": entry_medians(workload, timed),
              "entry_passes_s": [[sum(t.seconds for t in r if t.entry == e) for e in workload.entries]
                                 for r in passes],
              "raw_pass_s": runner.raw_walls, "setups_s": setups,
              "error_rate": error_rate, **workload.detail(timed)}
    if args.trace:
        detail["traced_passes"] = len(traced)
        metrics = per_layer(workload, tracer, traced, untraced, error_rate)
    else:
        metrics = end_to_end(workload, setups, passes)
    for p in runner.problems:
        print(f"pipebench: FAILED {p}", file=sys.stderr)
    print("pipebench detail " + json.dumps(detail))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
