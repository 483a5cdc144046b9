"""Self-test of the pipeline benchmark.

    python3 pipebench/selftest.py

1. Each oracle check rejects a deliberately wrong answer: an order off
   by one, a swapped normal form, a perturbed growth coefficient, a
   rewrite rule whose sides differ, a flipped word-problem answer, and
   wrong cone-type and small-root counts.  The models satisfy their
   relators.
2. The runner counts an answer that changes between passes as failed.
3. A tiny run of every workload, untraced and traced, finishes with
   correct answers and reports exactly the metrics BENCHMARK.json names.
4. A directory holding only BENCHMARK.json and the benchmark's own files
   makes the benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracles import OracleMismatch  # noqa: E402

FAILURES: list[str] = []


def rejects(what: str, check, *args) -> None:
    try:
        check(*args)
    except OracleMismatch:
        print(f"ok    oracle rejects {what}")
        return
    FAILURES.append(f"oracle accepted {what}")
    print(f"FAIL  oracle accepted {what}")


def accepts(what: str, check, *args) -> None:
    try:
        check(*args)
    except OracleMismatch as exc:
        FAILURES.append(f"oracle rejected the true {what}: {exc}")
        print(f"FAIL  oracle rejected the true {what}: {exc}")
        return
    print(f"ok    oracle accepts the true {what}")


def swap_first_pair(word: str) -> str:
    for i in range(len(word) - 1):
        if word[i] != word[i + 1]:
            return word[:i] + word[i + 1] + word[i] + word[i + 2:]
    raise ValueError(word)


def oracle_rejections(ns, workdir: Path) -> None:
    for name in ["F2", "Z3", "B3", "A5", *corpus.COXETER]:
        g = corpus.group(name)
        ok = all(g.model.same(r, "") for r in g.relators)
        ok = ok and all(g.model.same(c + g.inverse(c), "") for c in g.letters)
        print(f"{'ok' if ok else 'FAIL':5s} {name} model satisfies its relators")
        if not ok:
            FAILURES.append(f"{name} model")

    derive = workloads.Derive(1, True, workdir)
    derive.prepare(ns)
    g = derive.groups["A5"]
    out = ns.autostruct.derive_shortlex_structure(derive.pres["A5"])
    accepts("A5 derivation", derive.check, ns, g, out)
    off_by_one = SimpleNamespace(groupcalc=SimpleNamespace(
        group_order=lambda s: ns.groupcalc.group_order(s) + 1, growth=ns.groupcalc.growth))
    rejects("an A5 order off by one", derive.check, off_by_one, g, out)

    query = workloads.Query(1, True, workdir)
    for name in ("Z3", "T246"):
        g = query.groups[name]
        s = ns.autostruct.derive_shortlex_structure(query.presentation(ns, g)).structure
        w = query.nf_words[(name, 50)][0]
        nf = ns.groupcalc.normal_form(s, query.encode(g, w))
        accepts(f"{name} normal form", query.check_nf, g, w, nf)
        rejects(f"a swapped {name} normal form", query.check_nf, g, w,
                query.encode(g, swap_first_pair(query.decode(g, nf))))
        growth = ns.groupcalc.growth(s, 16)
        accepts(f"{name} growth series", query.check_growth, g, growth)
        bumped = SimpleNamespace(expand=lambda n, gr=growth: [c + (k == 5) for k, c in enumerate(gr.expand(n))])
        rejects(f"a perturbed {name} growth coefficient", query.check_growth, g, bumped)
        cone = ns.groupcalc.cone_types(s, 8)
        want = corpus.ball(name, 8).cone_type_count()
        rejects(f"a {name} cone-type count off by one",
                oracles.expect, f"{name} cone types", cone.count + 1, want)
    b3 = corpus.group("B3")
    w = corpus.random_word(query.rng, b3, 30)
    rejects("a swapped B3 normal form", query.check_nf, b3, w, query.encode(b3, swap_first_pair(w)))
    u, v = corpus.wp_pairs(query.rng, b3, 1, 12)[0]
    rejects("a flipped B3 word-problem answer", oracles.expect, "wp", "distinct\n",
            "equal\n" if b3.model.same(u, v) else "distinct\n")

    kb = workloads.KB(1, True, workdir)
    kb.prepare(ns)
    rs, result = kb.complete(ns, "A5")
    accepts("A5 rewrite rules", kb.check_rules, kb.groups["A5"], rs, result)
    g = kb.groups["A5"]
    bogus = SimpleNamespace(rules=rs.rules + [SimpleNamespace(lhs=kb.encode(g, "bab"), rhs=kb.encode(g, "a"))],
                            num_live=rs.num_live)
    rejects("a rule bab -> a with unequal sides in A5", kb.check_rules, g, bogus, result)
    reduced = [rs.reduce(kb.encode(g, w)) for w in kb.words["A5"]]
    accepts("A5 reductions", kb.check_reduced, g, reduced)
    rejects("a wrong A5 reduction", kb.check_reduced, g, [reduced[0] + b"\x00"] + reduced[1:])

    cox = workloads.Coxeter(1, True, workdir)
    h3 = corpus.group("H3")
    m = ns.formats.matrix_from_json({"m": h3.matrix})
    roots = ns.coxeter.small_roots(m)[1]
    accepts("H3 small-root count", cox.check_roots, h3, roots)
    rejects("an H3 small-root count off by one", cox.check_roots, h3, roots[:-1])
    wa = ns.coxeter.build_shortlex_word_acceptor(m)
    series = oracles.coxeter_growth(h3.matrix, 16)
    got = ns.fsa.growth_series(wa, 16).expand(16)
    accepts("H3 growth series", oracles.expect, "H3 growth", got, series)
    rejects("a perturbed H3 growth coefficient", oracles.expect, "H3 growth",
            [c + (k == 3) for k, c in enumerate(got)], series)


class Flaky(workloads.Workload):
    """One operation whose answer changes on every pass."""

    name = "flaky"
    entries = ["x"]

    def prepare(self, ns):
        self.n = 0

    def ops(self, ns):
        def call():
            self.n += 1
            return self.n
        return [workloads.Op("x", "x", call, lambda out: bytes([out]), lambda out: None)]


def determinism_check() -> None:
    w = Flaky(1, True, Path("."))
    w.prepare(None)
    runner = run.Runner(w, run.Speed())
    for _ in range(3):
        runner.run_pass(None)
    ok = runner.attempted == 3 and runner.failed == 2
    print(f"{'ok' if ok else 'FAIL':5s} a changing answer fails every pass after the first "
          f"(attempted={runner.attempted}, failed={runner.failed})")
    if not ok:
        FAILURES.append("determinism check")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "pipebench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, "--workload", w["name"], "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            want = {(m["name"], m["unit"]) for m in spec[key]}
            got = {(k, v["unit"]) for k, v in result.get("metrics", {}).items()}
            ok = proc.returncode == 0 and result.get("correct") is True and got == want
            print(f"{'ok' if ok else 'FAIL':5s} tiny {w['name']} --trace {trace}: "
                  f"attempted={result.get('attempted')} failed={result.get('failed')}")
            if not ok:
                FAILURES.append(f"tiny {w['name']} trace {trace}: {proc.stderr[-2000:]} "
                                f"missing={sorted(want - got)} extra={sorted(got - want)}")


def bare_directory() -> None:
    bare = ROOT / ".pipebench_tmp" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "pipebench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "derive", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"{'ok' if ok else 'FAIL':5s} without the library the benchmark exits {proc.returncode} "
          f"and prints no result")
    if not ok:
        FAILURES.append("bare directory")


def main() -> int:
    workdir = ROOT / ".pipebench_tmp" / f"selftest-{os.getpid()}"
    try:
        oracle_rejections(run.import_agt(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    determinism_check()
    tiny_runs()
    bare_directory()
    try:
        (ROOT / ".pipebench_tmp").rmdir()
    except OSError:
        pass
    print("self-test", "FAILED:\n  " + "\n  ".join(FAILURES) if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
