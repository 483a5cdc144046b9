"""Per-layer tracing from outside the library.

``Tracer.install`` wraps public functions and methods of the ``agt``
layers in place: a module function is replaced in every ``agt`` module
that holds it (callers that imported it by name see the wrapper too),
and a method is replaced on its class.  Calls inside the library go
through these names, so the wrappers see them.  While ``active`` is
set, a wrapped call records a span (name, start, end, parent); spans
stay in memory until ``self_times`` turns them into self times (a
span's duration minus the time its child spans cover), rescaled to the
reference speed like the call that made them.  Count-only
wrappers record calls without a span, and hooks read sizes from the
arguments and results.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable


def _memo_hit(args) -> bool:
    s, u, y = args
    return (y, u) in s._partner_memo


class Target:
    def __init__(
        self,
        module: str,
        attr: str,
        name: str | None = None,
        span: bool = True,
        before: Callable | None = None,
        after: Callable | None = None,
    ):
        self.module = module
        self.attr = attr  # "function" or "Class.method"
        self.name = name or f"{module}.{attr}"
        self.span = span
        self.before = before
        self.after = after


def _add(key: str, amount) -> Callable:
    return lambda t, args, res, pre: t.add(key, amount(args, res, pre))


TARGETS = [
    Target(
        "rewrite", "Completion.run",
        before=lambda args: (args[0].processed, args[0].added),
        after=lambda t, args, res, pre: (
            t.add("rewrite.pairs_processed", res.processed - pre[0]),
            t.add("rewrite.rules_added", res.added - pre[1]),
        ),
    ),
    Target("rewrite", "RewriteSystem.reduce", span=False),
    Target(
        "worddiff", "accumulate_from_rules",
        after=lambda t, args, res, pre: (
            t.add("worddiff.states", res.num_states),
            t.peak("worddiff.k", res.max_difference_length()),
        ),
    ),
    Target("autostruct", "build_candidate_word_acceptor",
           after=_add("autostruct.wa_states", lambda a, r, p: r.num_states)),
    Target("autostruct", "build_multiplier",
           after=_add("autostruct.multiplier_states", lambda a, r, p: r.dfa.num_states)),
    Target(
        "autostruct", "elementary_checks",
        after=lambda t, args, res, pre: (
            t.add("autostruct.passes", 1),
            t.add("autostruct.elementary_failures", int(not res.ok)),
        ),
    ),
    Target("autostruct", "axiom_check"),
    Target("pairfsa", "compose",
           after=_add("pairfsa.compose.states_out", lambda a, r, p: r.dfa.num_states)),
    Target("pairfsa", "partners"),
    Target("pairfsa", "slice_first"),
    Target("pairfsa", "project_first", "pairfsa.project"),
    Target("pairfsa", "project_second", "pairfsa.project"),
    Target(
        "fsa", "minimize",
        after=lambda t, args, res, pre: (
            t.add("fsa.minimize.states_in", args[0].num_states),
            t.add("fsa.minimize.states_out", res.num_states),
        ),
    ),
    Target("fsa", "determinize"),
    Target("fsa", "enumerate_words"),
    Target("fsa", "growth_series"),
    Target("fsa", "Dfa.__init__", "fsa.dfa_constructed", span=False),
    Target("groupcalc", "normal_form"),
    Target("groupcalc", "cone_types"),
    Target(
        "groupcalc", "multiply", span=False, before=_memo_hit,
        after=_add("groupcalc.memo_hits", lambda a, r, hit: int(hit)),
    ),
    *(
        Target("cyclotomic", f"CyclotomicField.{op}", f"cyclotomic.{op}")
        for op in ("mul", "sign", "add", "sub", "scale", "conjugate")
    ),
    Target("coxeter", "small_roots",
           after=_add("coxeter.roots", lambda a, r, p: len(r[1]))),
    Target("coxeter", "build_shortlex_word_acceptor", "coxeter.acceptor"),
    Target("coxeter", "build_geodesic_acceptor", "coxeter.acceptor"),
    Target("formats", "save_structure"),
    Target("formats", "load_structure"),
    Target("cli", "main"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_scale = array("d")  # to the reference speed, set by the runner
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.sums: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def add(self, key: str, amount) -> None:
        self.sums[key] += amount

    def peak(self, key: str, value) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def _wrap(self, orig: Callable, target: Target) -> Callable:
        tracer = self
        name = target.name
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        before, after, span = target.before, target.after, target.span
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            tracer.calls[name] += 1
            pre = before(args) if before is not None else None
            if span:
                stack = tracer._stack
                idx = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1] if stack else -1)
                tracer.span_end.append(0.0)
                tracer.span_scale.append(1.0)
                stack.append(idx)
                tracer.span_start.append(clock())
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tracer.span_end[idx] = clock()
                    stack.pop()
            else:
                result = orig(*args, **kwargs)
            if after is not None:
                after(tracer, args, result, pre)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items() if k == "agt" or k.startswith("agt.")}
        for target in TARGETS:
            module = mods[f"agt.{target.module}"]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, target))
                continue
            orig = getattr(module, target.attr)
            wrapper = self._wrap(orig, target)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def rescale(self, lo: int, hi: int, factor: float) -> None:
        """Scale spans lo..hi-1, made during one timed call, like that call."""
        for k in range(lo, hi):
            self.span_scale[k] = factor

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, at the reference speed."""
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, float] = {name: 0.0 for name in self.names}
        for i in range(n):
            out[self.names[self.span_name[i]]] += (end[i] - start[i] - child[i]) * self.span_scale[i]
        return out
