"""Batch command-line front end.

Subcommands: kb, autstructure, reduce, wp, order, growth, enumerate,
conetypes, conj, cox {wa,geo,roots}, fsa {min,and,or,not,minus,eq}.
Exit codes: 0 success/verified, 1 procedure abandoned, 2 usage error,
3 resource limit; a closed standard output ends the command quietly.
Every limit is a count set by one flag, and each command takes only the
limit flags it reads.  Identical inputs and limits give byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from . import __version__, formats, fsa, groupcalc, pairfsa
from .autostruct import derive_shortlex_structure
from .coxeter import (
    build_geodesic_acceptor,
    build_shortlex_word_acceptor,
    small_roots,
)
from .errors import AgtError, ResourceLimitError, UsageError
from .limits import Limits, check_limit
from .rewrite import Completion, system_from_presentation

EXIT_OK = 0
EXIT_ABANDONED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _load(path: str, parse):
    return formats.parse_json_file(path, parse, missing="no such file")


def _load_presentation(path: str):
    return _load(path, formats.presentation_from_json)


def _load_matrix(path: str):
    return _load(path, formats.matrix_from_json)


def _load_dfa(path: str):
    m = _load(path, formats.dfa_from_json)
    if isinstance(m, pairfsa.PairDfa):
        raise UsageError(f"{path} holds a pair automaton where a plain one is needed")
    return m


LIMITS = tuple(f.name for f in dataclasses.fields(Limits))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _limits(args) -> Limits:
    """Limits from the limit flags the command has, defaults for the rest."""
    values = {name: getattr(args, name) for name in LIMITS if hasattr(args, name)}
    for name, value in values.items():
        check_limit(name, value, _flag(name))
    return Limits(**values)


def _add_limit_flags(p: argparse.ArgumentParser, names, note: str | None = None) -> None:
    """One int flag per ``Limits`` field in ``names``, with its default."""
    d = Limits()
    for name in names:
        p.add_argument(_flag(name), type=int, default=getattr(d, name), help=note)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -----------------------------------------------


def cmd_kb(args) -> int:
    pres = _load_presentation(args.presentation)
    rs = system_from_presentation(pres)
    result = Completion(rs, _limits(args)).run()
    lines = [
        f"status: {result.status}" + (f" ({result.which})" if result.which else ""),
        f"rules: {rs.num_live}",
        f"processed: {result.processed}",
        f"queue: {result.queue_size}",
        f"confluent: {rs.confluent}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    _emit(args, formats.rules_dump(rs))
    return EXIT_OK


def cmd_autstructure(args) -> int:
    pres = _load_presentation(args.presentation)
    outcome = derive_shortlex_structure(pres, _limits(args))
    if args.outdir and outcome.structure is not None:
        formats.save_structure(outcome.structure, args.outdir)
    if args.quiet:
        last = outcome.transcript.splitlines()[-1] if outcome.transcript else ""
        sys.stdout.write(last + "\n")
    else:
        sys.stdout.write(outcome.transcript + "\n")
    if outcome.verified:
        return EXIT_OK
    sys.stdout.write(f"abandoned: {outcome.reason}\n")
    return EXIT_RESOURCE if outcome.resource_limited else EXIT_ABANDONED


def cmd_reduce(args) -> int:
    s = formats.load_structure(args.bundle)
    w = s.alphabet.parse_word(args.word)
    nf = groupcalc.normal_form(s, w)
    sys.stdout.write(s.alphabet.format_word(nf) + "\n")
    return EXIT_OK


def cmd_wp(args) -> int:
    s = formats.load_structure(args.bundle)
    same = groupcalc.word_problem(
        s, s.alphabet.parse_word(args.word1), s.alphabet.parse_word(args.word2)
    )
    sys.stdout.write(("equal" if same else "distinct") + "\n")
    return EXIT_OK


def cmd_order(args) -> int:
    s = formats.load_structure(args.bundle)
    n = groupcalc.group_order(s)
    sys.stdout.write(("infinite" if n is None else str(n)) + "\n")
    return EXIT_OK


def cmd_growth(args) -> int:
    s = formats.load_structure(args.bundle)
    g = groupcalc.growth(s, args.terms)
    _emit(args, formats.dumps(formats.growth_to_json(g)))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    s = formats.load_structure(args.bundle)
    words = groupcalc.enumerate_elements(s, args.max_len)
    _emit(args, "".join(s.alphabet.format_word(w) + "\n" for w in words))
    return EXIT_OK


def cmd_conetypes(args) -> int:
    s = formats.load_structure(args.bundle)
    result = groupcalc.cone_types(s, args.radius)
    sys.stdout.write(
        f"cone types: {result.count} (approximate at radius {result.radius}, "
        f"depth {result.depth})\n"
    )
    if args.output:
        Path(args.output).write_text(
            formats.dumps(formats.dfa_to_json(result.automaton))
        )
    return EXIT_OK


def cmd_conj(args) -> int:
    s = formats.load_structure(args.bundle)
    u = s.alphabet.parse_word(args.word1)
    v = s.alphabet.parse_word(args.word2)
    ans = groupcalc.conjugacy_search(s, u, v, args.max_len)
    # |X^+-|^(k(|u|+|v|)) as a power: its decimal digits can be too many to print
    bound = f"{s.alphabet.size}^{s.k * (len(u) + len(v))}"
    if ans.status == "conjugate":
        sys.stdout.write(f"conjugate by {s.alphabet.format_word(ans.witness)!r}\n")
    elif ans.status == "notConjugateWithin":
        sys.stdout.write(f"not conjugate (complete search to bound {bound})\n")
    else:
        sys.stdout.write(f"unknown within length {ans.searched_bound} (bound {bound})\n")
    return EXIT_OK


def cmd_cox(args) -> int:
    state_cap = _limits(args).state_cap
    matrix = _load_matrix(args.matrix)
    if args.what == "roots":
        ctx, roots, _ = small_roots(matrix)
        lines = [f"conductor: {ctx.field.conductor}", f"small roots: {len(roots)}"]
        lines += [ctx.format_root(r) for r in roots]
        _emit(args, "\n".join(lines) + "\n")
        return EXIT_OK
    builder = build_shortlex_word_acceptor if args.what == "wa" else build_geodesic_acceptor
    names = args.names.split(",") if args.names else None
    wa = builder(matrix, names, state_cap)
    count = fsa.language_is_finite(wa)
    sys.stdout.write(
        f"states: {wa.num_states} language: "
        + ("infinite" if count is None else f"{count} words")
        + "\n"
    )
    _emit(args, formats.dumps(formats.dfa_to_json(wa)))
    return EXIT_OK


def cmd_fsa(args) -> int:
    single = args.op in ("min", "not")
    if single != (args.input2 is None):
        raise UsageError(f"fsa {args.op} takes {'one automaton' if single else 'two automata'}")
    m1 = _load_dfa(args.input1)
    m2 = None if single else _load_dfa(args.input2)
    if args.op == "eq":
        sys.stdout.write(("equal" if fsa.equivalent(m1, m2) else "different") + "\n")
        return EXIT_OK
    result = fsa.minimize(m1) if args.op == "min" else fsa.boolean_op(args.op, m1, m2)
    _emit(args, formats.dumps(formats.dfa_to_json(result)))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agt",
        description="Automatic structures for finitely presented groups",
    )
    parser.add_argument("--version", action="version", version=f"agt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kb", help="run Knuth-Bendix completion, dump the rules")
    p.add_argument("presentation")
    p.add_argument("-o", "--output", help="write rules to a file")
    _add_limit_flags(p, ["max_rules", "max_lhs_len", "max_rhs_len"])
    p.set_defaults(func=cmd_kb)

    p = sub.add_parser("autstructure", help="derive and verify a shortlex automatic structure")
    p.add_argument("presentation")
    p.add_argument("-o", "--outdir", help="write the structure bundle here")
    p.add_argument("-q", "--quiet", action="store_true", help="print only the outcome line")
    _add_limit_flags(p, LIMITS)
    p.set_defaults(func=cmd_autstructure)

    p = sub.add_parser("reduce", help="normal form of a word via the structure")
    p.add_argument("bundle")
    p.add_argument("word")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("wp", help="word problem: do two words represent the same element")
    p.add_argument("bundle")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_wp)

    p = sub.add_parser("order", help="group order from the word acceptor")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("growth", help="exact rational growth series")
    p.add_argument("bundle")
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("enumerate", help="accepted words in shortlex order")
    p.add_argument("bundle")
    p.add_argument("--max-len", type=int, default=5)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("conetypes", help="radius-limited cone-type count")
    p.add_argument("bundle")
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("-o", "--output", help="write the quotient automaton here")
    p.set_defaults(func=cmd_conetypes)

    p = sub.add_parser("conj", help="bounded conjugacy search")
    p.add_argument("bundle")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--max-len", type=int, default=6)
    p.set_defaults(func=cmd_conj)

    p = sub.add_parser("cox", help="Coxeter-group constructions from a matrix")
    p.add_argument("what", choices=["wa", "geo", "roots"])
    p.add_argument("matrix")
    p.add_argument("--names", help="comma-separated generator names")
    p.add_argument("-o", "--output")
    _add_limit_flags(p, ["state_cap"], "caps the subset states of wa and geo")
    p.set_defaults(func=cmd_cox)

    p = sub.add_parser("fsa", help="automaton algebra on JSON files")
    p.add_argument("op", choices=["min", "and", "or", "not", "minus", "eq"])
    p.add_argument("input1")
    p.add_argument("input2", nargs="?")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_fsa)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    code = EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of standard output has gone (agt kb ... | head): stop
        # quietly, with the command's code if it got that far, and send
        # what is left to devnull so that the flush at shutdown does not
        # fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc.which} (cap {exc.cap})\n")
        return EXIT_RESOURCE
    except (AgtError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
