import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

from agt.cli import main


@pytest.fixture()
def z2_file(tmp_path):
    p = tmp_path / "z2.json"
    p.write_text(
        json.dumps(
            {
                "generators": ["a", "b"],
                "inverses": {"a": "A", "b": "B"},
                "relators": ["abAB"],
            }
        )
    )
    return str(p)


@pytest.fixture()
def a2_file(tmp_path):
    p = tmp_path / "a2.json"
    p.write_text(json.dumps({"rank": 2, "m": [[1, 3], [3, 1]]}))
    return str(p)


@pytest.fixture()
def z2_bundle(tmp_path, z2_file, capsys):
    out = tmp_path / "out"
    assert main(["autstructure", z2_file, "-o", str(out)]) == 0
    capsys.readouterr()
    return str(out)


def test_autstructure_verifies(z2_file, tmp_path, capsys):
    out = tmp_path / "bundle"
    code = main(["autstructure", z2_file, "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "verified: k=2" in captured.out
    assert (out / "wa.json").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["verified"] is True and meta["k"] == 2


def test_kb_dumps_rules(z2_file, capsys):
    assert main(["kb", z2_file]) == 0
    out = capsys.readouterr().out
    assert "status: complete" in out
    assert "ba -> ab" in out


def test_kb_reports_the_pending_equations(z2_file, tmp_path, capsys):
    # B3 capped at 60 rules stops with equations still queued; the counts
    # are those of the eager queue of expanded equations
    p = tmp_path / "b3.json"
    p.write_text(json.dumps(
        {"generators": ["a", "b"], "inverses": {"a": "A", "b": "B"}, "relators": ["abaBAB"]}
    ))
    assert main(["kb", str(p), "--max-rules", "60"]) == 0
    head = capsys.readouterr().out.splitlines()[:5]
    assert head[0] == "status: limitHit (maxRules)" and head[1] == "rules: 60"
    assert head[2:] == ["processed: 832", "queue: 1475", "confluent: False"]
    assert main(["kb", z2_file]) == 0
    assert capsys.readouterr().out.splitlines()[3] == "queue: 0"


def test_reduce_wp_order(z2_bundle, capsys):
    assert main(["reduce", z2_bundle, "ba"]) == 0
    assert capsys.readouterr().out.strip() == "ab"
    assert main(["wp", z2_bundle, "ab", "ba"]) == 0
    assert capsys.readouterr().out.strip() == "equal"
    assert main(["order", z2_bundle]) == 0
    assert capsys.readouterr().out.strip() == "infinite"


@pytest.mark.parametrize("relators", [["aab", "aaB"], ["aaB", "aab"]])
def test_order_of_a_presentation_with_two_relators_on_one_lhs(relators, tmp_path, capsys):
    src = tmp_path / "z4.json"
    src.write_text(json.dumps({"generators": ["a", "b"], "inverses": {"a": "A", "b": "B"},
                               "relators": relators}))
    out = tmp_path / "z4"
    assert main(["autstructure", str(src), "-o", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("verified:")
    assert main(["order", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_growth_json_output(z2_bundle, capsys):
    assert main(["growth", z2_bundle, "--terms", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coefficients"] == [1, 4, 8, 12, 16]
    assert data["numerator"] == [1, 2, 1]


def test_enumerate(z2_bundle, capsys):
    assert main(["enumerate", z2_bundle, "--max-len", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["", "a", "A", "b", "B"]


def test_conetypes(z2_bundle, capsys):
    assert main(["conetypes", z2_bundle, "--radius", "8"]) == 0
    assert "cone types: 9" in capsys.readouterr().out


def test_conj(z2_bundle, capsys):
    assert main(["conj", z2_bundle, "ab", "ba"]) == 0
    assert "conjugate by ''" in capsys.readouterr().out


def test_conj_prints_the_bound_as_a_power(z2_bundle, capsys):
    # 4^8002 has 4,818 decimal digits, more than int-to-str converts
    assert main(["conj", z2_bundle, "a" * 4000, "b", "--max-len", "0"]) == 0
    out, err = capsys.readouterr()
    assert out == "unknown within length 0 (bound 4^8002)\n" and err == ""


def test_cox_subcommands(a2_file, tmp_path, capsys):
    assert main(["cox", "roots", a2_file]) == 0
    out = capsys.readouterr().out
    assert "small roots: 3" in out
    wa_path = tmp_path / "wa.json"
    assert main(["cox", "wa", a2_file, "-o", str(wa_path)]) == 0
    assert "6 words" in capsys.readouterr().out
    geo_path = tmp_path / "geo.json"
    assert main(["cox", "geo", a2_file, "-o", str(geo_path)]) == 0
    assert "7 words" in capsys.readouterr().out
    assert main(["fsa", "eq", str(wa_path), str(geo_path)]) == 0
    assert capsys.readouterr().out.strip() == "different"
    assert main(["fsa", "eq", str(wa_path), str(wa_path)]) == 0
    assert capsys.readouterr().out.strip() == "equal"


# 2cos(pi/5) = C_1(t) = t for t = 2cos(2pi/10), the golden ratio
H3_ROOTS = (
    "conductor: 10\n"
    "small roots: 15\n"
    "e1\n"
    "e2\n"
    "e3\n"
    "e1 + t*e2\n"
    "t*e1 + e2\n"
    "e2 + e3\n"
    "t*e1 + t*e2\n"
    "e1 + t*e2 + t*e3\n"
    "t*e1 + e2 + e3\n"
    "t*e1 + t*e2 + t*e3\n"
    "t*e1 + (1 + t)*e2 + e3\n"
    "t*e1 + (1 + t)*e2 + t*e3\n"
    "(1 + t)*e1 + (1 + t)*e2 + e3\n"
    "(1 + t)*e1 + (1 + t)*e2 + t*e3\n"
    "(1 + t)*e1 + 2*t*e2 + t*e3\n"
)


def test_cox_roots_prints_polynomials_in_t(tmp_path, capsys):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({"m": [[1, 5, 2], [5, 1, 3], [2, 3, 1]]}))
    assert main(["cox", "roots", str(path)]) == 0
    assert capsys.readouterr().out == H3_ROOTS


@pytest.mark.parametrize("names", ["a,", ",b", "a b,c"])
def test_cox_names_must_be_nonempty_without_whitespace(names, a2_file, capsys):
    assert main(["cox", "wa", a2_file, "--names", names]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", ["eps", "a/b"])
def test_autstructure_refuses_names_that_cannot_name_files(name, tmp_path, capsys):
    src = tmp_path / "pres.json"
    src.write_text(json.dumps({"generators": [name], "inverses": {name: "E"}, "relators": []}))
    out = tmp_path / "bundle"
    assert main(["autstructure", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_fsa_algebra(a2_file, tmp_path, capsys):
    wa_path = tmp_path / "wa.json"
    geo_path = tmp_path / "geo.json"
    main(["cox", "wa", a2_file, "-o", str(wa_path)])
    main(["cox", "geo", a2_file, "-o", str(geo_path)])
    capsys.readouterr()
    diff_path = tmp_path / "diff.json"
    assert main(["fsa", "minus", str(geo_path), str(wa_path), "-o", str(diff_path)]) == 0
    data = json.loads(diff_path.read_text())
    assert data["states"] >= 1
    assert main(["fsa", "min", str(wa_path), "-o", str(tmp_path / "m.json")]) == 0


@pytest.mark.parametrize("op", ["min", "not", "and", "or", "minus", "eq"])
def test_fsa_takes_as_many_automata_as_its_operation(op, a2_file, tmp_path, capsys):
    wa_path = tmp_path / "wa.json"
    main(["cox", "wa", a2_file, "-o", str(wa_path)])
    capsys.readouterr()
    single = op in ("min", "not")
    # min and not refuse a second file before looking for it
    argv = ["fsa", op, str(wa_path)] + ([str(tmp_path / "missing.json")] if single else [])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    wanted = "one automaton" if single else "two automata"
    assert out == "" and err == f"error: fsa {op} takes {wanted}\n"


def test_exit_code_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["autstructure", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["kb", str(bad)]) == 2
    assert main(["frobnicate"]) == 2


def test_exit_code_abandoned(tmp_path, capsys):
    b3 = tmp_path / "b3.json"
    b3.write_text(
        json.dumps(
            {
                "generators": ["a", "b"],
                "inverses": {"a": "A", "b": "B"},
                "relators": ["abaBAB"],
            }
        )
    )
    code = main(
        ["autstructure", str(b3), "--stability-window", "1", "--max-passes", "2"]
    )
    assert code == 1
    assert "abandoned" in capsys.readouterr().out


def test_exit_code_resource_limit(z2_file, capsys):
    assert main(["autstructure", z2_file, "--state-cap", "2"]) == 3


def test_removed_radius_flag_is_a_usage_error(z2_file, capsys):
    assert main(["autstructure", z2_file, "--check-radius", "6"]) == 2
    assert "--check-radius" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [("kb", "--state-cap", "5"), ("kb", "--max-passes", "2"), ("autstructure", "--max-seconds", "1")],
)
def test_removed_limit_flag_is_a_usage_error(command, flag, value, z2_file, capsys):
    # completion reads no state cap and no pass count, and no limit is a wall-clock time
    assert main([command, z2_file, flag, value]) == 2
    assert flag in capsys.readouterr().err


def test_cli_outputs_deterministic(z2_file, tmp_path, capsys):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert main(["autstructure", z2_file, "-o", str(out1)]) == 0
    assert main(["autstructure", z2_file, "-o", str(out2)]) == 0
    capsys.readouterr()
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.fixture(scope="module")
def z2_bundle_master(tmp_path_factory):
    src = tmp_path_factory.mktemp("presentation") / "z2.json"
    src.write_text(
        json.dumps(
            {"generators": ["a", "b"], "inverses": {"a": "A", "b": "B"}, "relators": ["abAB"]}
        )
    )
    out = tmp_path_factory.mktemp("bundle") / "z2"
    assert main(["autstructure", str(src), "-o", str(out), "--quiet"]) == 0
    return out


def _edit_meta(**changes):
    def edit(bundle):
        meta = json.loads((bundle / "meta.json").read_text())
        for key, value in changes.items():
            if value is None:
                meta.pop(key)
            else:
                meta[key] = value
        (bundle / "meta.json").write_text(json.dumps(meta))

    return edit


def _copy_file(src, dst):
    def edit(bundle):
        shutil.copyfile(bundle / src, bundle / dst)

    return edit


def _write(name, text):
    def edit(bundle):
        (bundle / name).write_text(text)

    return edit


MALFORMED_BUNDLES = {
    "meta_without_verified": _edit_meta(verified=None),
    "meta_not_json": _write("meta.json", "{verified: true"),
    "meta_not_an_object": _write("meta.json", "[1, 2]"),
    "meta_without_k": _edit_meta(k=None),
    "meta_k_is_text": _edit_meta(k="2"),
    "meta_k_is_bool": _edit_meta(k=True),
    "meta_verified_is_text": _edit_meta(verified="yes"),
    "wa_holds_pair_automaton": _copy_file("m_a.json", "wa.json"),
    "multiplier_holds_plain_automaton": _copy_file("wa.json", "m_a.json"),
    "multiplier_missing": lambda bundle: (bundle / "m_B.json").unlink(),
    "multiplier_without_states": _write(
        "m_eps.json", json.dumps({"alphabet": ["a"], "inverses": {"a": "a"}})
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BUNDLES))
def test_malformed_bundle_is_a_usage_error(case, z2_bundle_master, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(z2_bundle_master, bundle)
    MALFORMED_BUNDLES[case](bundle)
    assert main(["wp", str(bundle), "aB", "Ba"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_wrong_automaton_kind_rejected_under_optimisation(z2_bundle_master, tmp_path):
    # explicit checks, not asserts: python -O must still refuse the bundle
    bundle = tmp_path / "bundle"
    shutil.copytree(z2_bundle_master, bundle)
    shutil.copyfile(bundle / "m_a.json", bundle / "wa.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "agt.cli", "wp", str(bundle), "aB", "Ba"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class ClosedStdout:
    """Standard output whose reader has gone; its descriptor is a file."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write

    def fileno(self):
        return self.fd


def test_closed_stdout_ends_quietly(tmp_path, monkeypatch, capsys):
    pres = tmp_path / "z2.json"
    pres.write_text(json.dumps(Z2_ORDER))
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedStdout(fd))
        assert main(["kb", str(pres)]) == 0
        # what is left goes to devnull, so the flush at shutdown succeeds
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_0(tmp_path):
    pres = tmp_path / "z2.json"
    pres.write_text(json.dumps(Z2_ORDER))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write fails with EPIPE
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "agt.cli", "kb", str(pres)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.fixture()
def a3_file(tmp_path):
    p = tmp_path / "a3.json"
    p.write_text(json.dumps({"rank": 3, "m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]}))
    return str(p)


def test_cox_acceptor_obeys_the_state_cap_flag(a3_file, capsys):
    # A3's shortlex acceptor explores 24 subset states
    assert main(["cox", "wa", a3_file, "--state-cap", "5"]) == 3
    assert capsys.readouterr().err == "resource limit: acceptor subset states (cap 5)\n"


def test_cox_invalid_state_cap_flag_is_a_usage_error(a3_file, capsys):
    assert main(["cox", "geo", a3_file, "--state-cap", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --state-cap ") and err.count("\n") == 1


def test_invalid_state_cap_flag_is_a_usage_error(z2_file, capsys):
    assert main(["autstructure", z2_file, "--state-cap", "0"]) == 2
    assert "--state-cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-rules", "-5"),
        ("--max-lhs-len", "0"),
        ("--max-rhs-len", "0"),
        ("--max-passes", "-2"),
        ("--stability-window", "0"),
        ("--state-cap", "0"),
    ],
)
def test_limit_flag_out_of_range_is_a_usage_error(flag, value, z2_file, a3_file, capsys):
    # each flag on exactly the commands that read it
    argvs = [["autstructure", z2_file]]
    if flag in ("--max-rules", "--max-lhs-len", "--max-rhs-len"):
        argvs.append(["kb", z2_file])
    if flag == "--state-cap":
        argvs += [["cox", what, a3_file] for what in ("wa", "geo", "roots")]
    for argv in argvs:
        assert main([*argv, flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {flag} ") and err.count("\n") == 1


def _set_target(name, target):
    def edit(bundle):
        data = json.loads((bundle / name).read_text())
        data["transitions"][0][0] = target
        (bundle / name).write_text(json.dumps(data))
        return bundle / name

    return edit


def _replace(name, **fields):
    def edit(bundle):
        data = json.loads((bundle / name).read_text())
        data.update(fields)
        (bundle / name).write_text(json.dumps(data))
        return bundle / name

    return edit


def _write_raw(name, text):
    def edit(bundle):
        (bundle / name).write_text(text)
        return bundle / name

    return edit


Z2_ORDER = {"generators": ["a", "b"], "inverses": {"a": "A", "b": "B"}, "relators": ["abAB"]}

FLOAT_TARGET = {
    "alphabet": ["a"], "inverses": {"a": "a"}, "states": 2, "initial": 0,
    "accepting": [1], "transitions": [[1.5], [0]],
}

# case -> (command, file content or None for no file, part of the message);
# a callable content edits a copy of the Z2 bundle and returns the file it broke
MALFORMED_FILES = {
    "automaton_float_target": (["fsa", "min"], FLOAT_TARGET, "non-integer number 1.5"),
    "automaton_float_states": (
        ["fsa", "min"], {**FLOAT_TARGET, "states": 2.0, "transitions": [[1], [0]]},
        "non-integer number 2.0",
    ),
    "bundle_float_target": (["order"], _set_target("m_a.json", 1.5), "non-integer number 1.5"),
    "automaton_boolean_states": (
        ["fsa", "min"],
        {**FLOAT_TARGET, "states": True, "initial": False, "accepting": [False],
         "transitions": [[False]]},
        "'states', 'initial', 'accepting' and 'transitions' must hold numbers, not true or false",
    ),
    "bundle_alphabet_as_a_string": (
        ["order"], _replace("wa.json", alphabet="aAbB"), "'alphabet' must be a list of names"
    ),
    "bundle_pair_flag_as_text": (
        ["order"], _replace("m_a.json", pairAlphabet="true"), "'pairAlphabet' must be true or false"
    ),
    "bundle_boolean_target": (["order"], _set_target("m_a.json", True), "not true or false"),
    "automaton_target_out_of_range": (
        ["fsa", "min"], {**FLOAT_TARGET, "transitions": [[2], [0]]}, "transition target out of range"
    ),
    "automaton_short_row": (
        ["fsa", "min"], {**FLOAT_TARGET, "transitions": [[], [0]]},
        "transition row width must match alphabet size",
    ),
    "automaton_alphabet_as_a_string": (
        ["fsa", "min"], {**FLOAT_TARGET, "alphabet": "a", "transitions": [[1], [0]]},
        "'alphabet' must be a list of names",
    ),
    "automaton_pair_flag_as_text": (
        ["fsa", "min"], {**FLOAT_TARGET, "pairAlphabet": "false", "transitions": [[1], [0]]},
        "'pairAlphabet' must be true or false",
    ),
    "automaton_without_states": (
        ["fsa", "min"], {"alphabet": ["a"], "inverses": {"a": "a"}}, "KeyError: 'states'"
    ),
    "automaton_not_an_object": (["fsa", "min"], [1, 2], "expected a JSON object"),
    "relator_not_a_word": (
        ["kb"], {"generators": ["a"], "inverses": {"a": "A"}, "relators": ["aa", 5]},
        "relator 2 must be a string or a list of symbol names",
    ),
    "inverses_as_pairs": (
        ["kb"], {"generators": ["a"], "inverses": [["a", "A"]]},
        "'inverses' must be an object mapping generator names to inverse names",
    ),
    "inverses_as_a_string": (
        ["kb"], {"generators": ["a"], "inverses": "aA"},
        "'inverses' must be an object mapping generator names to inverse names",
    ),
    "generator_not_a_name": (
        ["kb"], {"generators": [["a"]], "involutions": []},
        "'generators' must be a nonempty list of names",
    ),
    "involutions_not_a_list": (
        ["autstructure"], {"generators": ["a"], "involutions": "a"},
        "'involutions' must be a list of generator names",
    ),
    "relators_not_a_list": (
        ["kb"], {"generators": ["a"], "inverses": {"a": "A"}, "relators": "aa"},
        "'relators' must be a list",
    ),
    "involution_with_an_inverse": (
        ["kb"], {"generators": ["a"], "involutions": ["a"], "inverses": {"a": "A"}},
        "generator 'a' is an involution and also has the inverse name 'A'",
    ),
    "involution_not_a_generator": (
        ["autstructure"], {"generators": ["a"], "inverses": {"a": "A"}, "involutions": ["b"]},
        "involution 'b' is not a generator",
    ),
    "inverse_of_no_generator": (
        ["kb"], {"generators": ["a"], "inverses": {"a": "A", "c": "C"}},
        "inverse name given for 'c', which is not a generator",
    ),
    "matrix_row_not_numbers": (
        ["cox", "wa"], {"m": [[1, "x"], [3]]}, "Coxeter matrix entries must be integers, got 'x'"
    ),
    "matrix_entries_not_integers": (
        ["cox", "roots"], {"m": [[True, "3"], ["3", True]]},
        "Coxeter matrix entries must be integers, got True",
    ),
    "matrix_rank_not_an_integer": (
        ["cox", "roots"], {"m": [[1]], "rank": True}, "declared rank True does not match the matrix's 1"
    ),
    "matrix_missing": (["cox", "wa"], None, "no such file"),
    "order_omits_a_generator": (
        ["autstructure"], {**Z2_ORDER, "order": ["a", "A"]},
        "'order' must list each of a, A, b, B exactly once",
    ),
    "order_unknown_entry": (
        ["kb"], {**Z2_ORDER, "order": ["a", "A", "b", "B", "c"]},
        "'order' must list each of a, A, b, B exactly once",
    ),
    "diff_table_too_narrow": (
        ["order"], _replace("diff.json", states=[""], transitions=[[99]]),
        "transition row width must match alphabet size",
    ),
    "diff_row_count": (
        ["order"], _replace("diff.json", states=["", "a"]),
        "transition table must have one row per state",
    ),
    "diff_target_out_of_range": (
        ["order"], _set_target("diff.json", 99), "transition target out of range"
    ),
    "diff_boolean_target": (
        ["order"], _set_target("diff.json", True),
        "'transitions' must hold numbers, not true or false",
    ),
    "diff_alphabet_as_a_string": (
        ["order"], _replace("diff.json", alphabet="aAbB"), "'alphabet' must be a list of names"
    ),
    "diff_first_state_not_empty": (
        ["order"], _replace("diff.json", states=["a", "A", "B", "b", "", "aB", "ab", "AB", "Ab"]),
        "the empty word first",
    ),
    "meta_k_differs_from_diff": (["order"], _replace("meta.json", k=3), "'k' differs"),
    "meta_format_v2": (
        ["order"], _replace("meta.json", format="agt-structure-v2"),
        "'format' must be 'agt-structure-v1', not 'agt-structure-v2'",
    ),
    "meta_without_format": (
        ["order"], _write_raw("meta.json", json.dumps({"k": 2, "verified": True})),
        "'format' must be 'agt-structure-v1', not None",
    ),
    "meta_nested_too_deeply": (["order"], _write_raw("meta.json", "[" * 100_000), "nested too deeply"),
    "generator_without_inverse": (
        ["kb"], {"generators": ["a", "b"], "inverses": {"a": "A"}, "relators": []},
        "generator 'b'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_input_file_is_a_usage_error(case, tmp_path, capsys, request):
    command, content, message = MALFORMED_FILES[case]
    arg = path = tmp_path / "input.json"
    if callable(content):
        arg = tmp_path / "bundle"
        shutil.copytree(request.getfixturevalue("z2_bundle_master"), arg)
        path = content(arg)
    elif content is not None:
        path.write_text(json.dumps(content))
    assert main([*command, str(arg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert message in err and "Traceback" not in err


def test_repeated_commands_leave_no_cyclic_garbage(z2_bundle_master, capsys):
    # the parser is built once per process, not once per call
    main(["wp", str(z2_bundle_master), "ab", "ba"])
    gc.collect()
    gc.disable()
    try:
        assert main(["wp", str(z2_bundle_master), "ab", "ba"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out == "equal\nequal\n"
