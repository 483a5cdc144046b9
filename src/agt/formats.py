"""Stable JSON formats for every artifact the CLI reads and writes.

Automaton schema: {"alphabet": [names], "inverses": {name: name},
"pairAlphabet": bool (false when absent), "states": n, "initial": i,
"accepting": [...], "transitions": row-major dense table with -1 =
FAIL}.  For pair automata the alphabet entry is the base alphabet and
the columns follow the documented pair-symbol order.  All writers sort
keys and emit a trailing newline, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

from .autostruct import AutomaticStructure
from .coxeter import CoxeterMatrix
from .errors import UsageError
from .fsa import Dfa, GrowthSeries
from .pairfsa import PAD_NAME, PairAlphabet, PairDfa
from .rewrite import Presentation, RewriteSystem
from .words import Alphabet, inverse_closed_alphabet
from .worddiff import WordDifferenceMachine


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _alphabet_to_json(a: Alphabet) -> dict:
    return {
        "alphabet": list(a.names),
        "inverses": {a.names[i]: a.names[a.inverse[i]] for i in range(a.size)},
    }


def _alphabet_from_json(data: dict) -> Alphabet:
    names = data["alphabet"]
    if not isinstance(names, list):  # a string would be read as its letters
        raise UsageError("'alphabet' must be a list of names")
    inv_names = data["inverses"]
    index = {n: i for i, n in enumerate(names)}
    try:
        inverse = [index[inv_names[n]] for n in names]
    except KeyError as exc:
        raise UsageError(f"inverse map refers to unknown symbol {exc}") from None
    return Alphabet(names, inverse)


def dfa_to_json(m: Dfa, pair: bool = False, base: Alphabet | None = None) -> dict:
    data = _alphabet_to_json(base if pair else m.alphabet)
    data.update(
        {
            "pairAlphabet": pair,
            "states": m.num_states,
            "initial": m.initial,
            "accepting": sorted(m.accepting),
            "transitions": [list(row) for row in m.transitions],
        }
    )
    return data


def _refuse_bools(fields: str, numbers) -> None:
    """True == 1, so only its type tells a bool among ``numbers`` apart."""
    if bool in set(map(type, numbers)):
        raise UsageError(f"{fields} must hold numbers, not true or false")


def dfa_from_json(data: dict, pairs: PairAlphabet | None = None) -> Dfa | PairDfa:
    """The automaton of an automaton file.  A pair automaton over the
    base of ``pairs`` reuses that pair alphabet instead of building one."""
    base = _alphabet_from_json(data)
    numbers = chain((data["states"], data["initial"]), data["accepting"], *data["transitions"])
    _refuse_bools("'states', 'initial', 'accepting' and 'transitions'", numbers)
    pair = data.get("pairAlphabet", False)
    if not isinstance(pair, bool):
        raise UsageError("'pairAlphabet' must be true or false")
    if not pair:
        return Dfa(base, data["states"], data["initial"], data["accepting"], data["transitions"])
    if pairs is None or pairs.base != base:
        pairs = PairAlphabet(base)
    m = Dfa(pairs.alphabet, data["states"], data["initial"], data["accepting"], data["transitions"])
    return PairDfa(base, m, pairs)


def pairdfa_to_json(p: PairDfa) -> dict:
    return dfa_to_json(p.dfa, pair=True, base=p.base)


def presentation_to_json(p: Presentation) -> dict:
    a = p.alphabet
    generators = []
    inverses = {}
    involutions = []
    seen = set()
    for i, name in enumerate(a.names):
        if i in seen:
            continue
        generators.append(name)
        seen.add(i)
        j = a.inverse[i]
        if j == i:
            involutions.append(name)
        else:
            inverses[name] = a.names[j]
            seen.add(j)
    out = {
        "generators": generators,
        "inverses": inverses,
        "involutions": involutions,
        "relators": [a.format_word(r) for r in p.relators],
    }
    if a != inverse_closed_alphabet(generators, inverses, involutions):
        out["order"] = list(a.names)
    return out


def _all_str(items: list) -> bool:
    return all(isinstance(x, str) for x in items)


def presentation_from_json(data: dict) -> Presentation:
    if "generators" not in data:
        raise UsageError("presentation needs a 'generators' list")
    generators = data["generators"]
    inverses = data.get("inverses", {})
    involutions = data.get("involutions", [])
    if not isinstance(generators, list) or not generators or not _all_str(generators):
        raise UsageError("'generators' must be a nonempty list of names")
    if not isinstance(inverses, dict) or not _all_str([*inverses, *inverses.values()]):
        raise UsageError("'inverses' must be an object mapping generator names to inverse names")
    if not isinstance(involutions, list) or not _all_str(involutions):
        raise UsageError("'involutions' must be a list of generator names")
    alphabet = inverse_closed_alphabet(generators, inverses, involutions)
    if PAD_NAME in alphabet.names:
        raise UsageError(
            f"{PAD_NAME!r} is the padding symbol and cannot name a generator or an inverse"
        )
    order = data.get("order")
    if order is not None:
        names = alphabet.names
        if not isinstance(order, list) or sorted(order, key=str) != sorted(names):
            raise UsageError(f"'order' must list each of {', '.join(names)} exactly once")
        inverse = [names[alphabet.inverse[alphabet.index(n)]] for n in order]
        alphabet = Alphabet(order, [order.index(n) for n in inverse])
    relators = data.get("relators", [])
    if not isinstance(relators, list):
        raise UsageError("'relators' must be a list")
    words = []
    for i, r in enumerate(relators, 1):
        if isinstance(r, list):
            words.append(alphabet.word(r))
        elif isinstance(r, str):
            words.append(alphabet.parse_word(r))
        else:
            raise UsageError(f"relator {i} must be a string or a list of symbol names")
    return Presentation(alphabet, words)


def matrix_from_json(data: dict) -> CoxeterMatrix:
    if "m" not in data:
        raise UsageError("Coxeter matrix file needs an 'm' table")
    m = CoxeterMatrix(data["m"])
    rank = data.get("rank", m.rank)
    if isinstance(rank, bool) or rank != m.rank:
        raise UsageError(f"declared rank {rank!r} does not match the matrix's {m.rank}")
    return m


def growth_to_json(g: GrowthSeries) -> dict:
    return {
        "numerator": list(g.numerator),
        "denominator": list(g.denominator),
        "coefficients": list(g.coefficients),
        "display": str(g),
    }


def rules_dump(rs: RewriteSystem) -> str:
    return rs.dump() + "\n"


def diff_to_json(d: WordDifferenceMachine) -> dict:
    return {
        **_alphabet_to_json(d.alphabet),
        "states": [d.alphabet.format_word(w) for w in d.words],
        "transitions": [list(row) for row in d.table],
        "k": d.max_difference_length(),
    }


def diff_from_json(data: dict) -> WordDifferenceMachine:
    """The difference machine of a diff file.  Its table is checked as a
    Dfa over the pair alphabet would be: one row per state, one column
    per pair symbol, targets in -1..states-1."""
    base = _alphabet_from_json(data)
    pa = PairAlphabet(base)
    words = tuple(base.parse_word(w) for w in data["states"])
    if not words or words[0] != b"" or len(set(words)) != len(words):
        raise UsageError("states must be distinct words, the empty word first")
    _refuse_bools("'transitions'", chain(*data["transitions"]))
    table = Dfa(pa.alphabet, len(words), 0, (), data["transitions"]).transitions
    return WordDifferenceMachine(base, pa, words, table, None)


# -- structure bundles -------------------------------------------------

WA_FILE = "wa.json"
PRESENTATION_FILE = "presentation.json"
DIFF_FILE = "diff.json"
TRANSCRIPT_FILE = "transcript.txt"
META_FILE = "meta.json"
RULES_FILE = "rules.txt"
STRUCTURE_FORMAT = "agt-structure-v1"  # the "format" of meta.json


def _multiplier_filenames(a: Alphabet) -> dict[int | None, str]:
    """The multiplier file of each key, epsilon first.

    Raises UsageError unless the names are distinct plain file names: a
    generator named ``eps`` would share the epsilon multiplier's file,
    and a name with a path separator leaves the bundle directory.
    """
    keys = [None, *range(a.size)]
    files = {key: f"m_{'eps' if key is None else a.names[key]}.json" for key in keys}
    for key, name in files.items():
        if Path(name).name != name or "\0" in name:
            raise UsageError(f"generator {a.names[key]!r} cannot name a multiplier file")
    if len(set(files.values())) != len(files):
        raise UsageError("a generator named 'eps' would share the epsilon multiplier's file")
    return files


def save_structure(s: AutomaticStructure, outdir: str | Path) -> list[str]:
    """Write a structure bundle directory; returns the file names written.

    Nothing is written when the generator names cannot name the
    multiplier files (see ``_multiplier_filenames``).
    """
    multiplier_files = _multiplier_filenames(s.alphabet)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name: str, text: str) -> None:
        (out / name).write_text(text)
        written.append(name)

    write(PRESENTATION_FILE, dumps(presentation_to_json(s.presentation)))
    write(WA_FILE, dumps(dfa_to_json(s.word_acceptor)))
    for key, name in multiplier_files.items():
        write(name, dumps(pairdfa_to_json(s.multipliers[key])))
    write(DIFF_FILE, dumps(diff_to_json(s.diff_machine)))
    write(
        META_FILE,
        dumps({"k": s.k, "verified": s.verified, "format": STRUCTURE_FORMAT}),
    )
    write(TRANSCRIPT_FILE, s.transcript + "\n")
    if s.reducer is not None:
        write(RULES_FILE, rules_dump(s.reducer))
    return written


def _not_an_integer(text: str):
    raise UsageError(f"non-integer number {text}")


def read_json_object(path: str | Path, missing: str = "missing from the bundle") -> dict:
    """The JSON object in path; a missing file is reported as ``missing``.

    No agt format has a non-integer number, so a float, NaN or Infinity
    is an error here, before any parser sees it.
    """
    try:
        text = Path(path).read_text()
        data = json.loads(text, parse_float=_not_an_integer, parse_constant=_not_an_integer)
    except FileNotFoundError:
        raise UsageError(f"{path}: {missing}") from None
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise UsageError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise UsageError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    return data


def parse_json_file(path: str | Path, parse, missing: str = "missing from the bundle"):
    """parse(data) for the JSON object in path; every malformation
    becomes a one-line UsageError naming the file."""
    data = read_json_object(path, missing)
    try:
        return parse(data)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise UsageError(f"{path}: malformed ({type(exc).__name__}: {exc})") from None


def load_structure(bundle: str | Path) -> AutomaticStructure:
    """Read a bundle written by :func:`save_structure`.

    Any missing file, invalid JSON, ``format`` in meta.json other than
    ``STRUCTURE_FORMAT``, missing or ill-typed field, wrong kind of
    automaton or alphabet mismatch raises UsageError.
    """
    path = Path(bundle)
    if not path.is_dir():
        raise UsageError(f"{bundle} is not a structure bundle directory")
    meta_path = path / META_FILE
    meta = read_json_object(meta_path)
    if meta.get("format") != STRUCTURE_FORMAT:
        raise UsageError(
            f"{meta_path}: 'format' must be {STRUCTURE_FORMAT!r}, not {meta.get('format')!r}"
        )
    pres = parse_json_file(path / PRESENTATION_FILE, presentation_from_json)
    alphabet = pres.alphabet
    wa = parse_json_file(path / WA_FILE, dfa_from_json)
    if not isinstance(wa, Dfa) or wa.alphabet != alphabet:
        raise UsageError(
            f"{path / WA_FILE}: not a word acceptor over the presentation's alphabet"
        )
    diff = parse_json_file(path / DIFF_FILE, diff_from_json)
    if diff.alphabet != alphabet:
        raise UsageError(f"{path / DIFF_FILE}: alphabet differs from the presentation's")
    k = meta.get("k")
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise UsageError(f"{meta_path}: 'k' must be a non-negative integer")
    if k != diff.max_difference_length():
        raise UsageError(f"{meta_path}: 'k' differs from the longest difference in {DIFF_FILE}")
    verified = meta.get("verified")
    if not isinstance(verified, bool):
        raise UsageError(f"{meta_path}: 'verified' must be true or false")
    multipliers: dict[int | None, PairDfa] = {}
    for key, name in _multiplier_filenames(alphabet).items():
        mp = path / name
        loaded = parse_json_file(mp, lambda data: dfa_from_json(data, diff.pairs))
        if not isinstance(loaded, PairDfa) or loaded.base != alphabet:
            raise UsageError(
                f"{mp}: not a pair automaton over the presentation's alphabet"
            )
        multipliers[key] = loaded
    try:
        transcript = (path / TRANSCRIPT_FILE).read_text().rstrip("\n")
    except FileNotFoundError:
        raise UsageError(f"{path / TRANSCRIPT_FILE}: missing from the bundle") from None
    except ValueError as exc:
        raise UsageError(f"{path / TRANSCRIPT_FILE}: unreadable: {exc}") from None
    return AutomaticStructure(
        presentation=pres,
        word_acceptor=wa,
        multipliers=multipliers,
        diff_machine=diff,
        k=k,
        verified=verified,
        transcript=transcript,
    )
