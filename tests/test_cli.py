import json

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


def test_reduce_wp_order(z2_bundle, capsys):
    assert main(["reduce", z2_bundle, "ba"]) == 0
    assert capsys.readouterr().out.strip() == "ab"
    assert main(["wp", z2_bundle, "ab", "ba"]) == 0
    assert capsys.readouterr().out.strip() == "equal"
    assert main(["order", z2_bundle]) == 0
    assert capsys.readouterr().out.strip() == "infinite"


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


def test_exit_code_resource_limit(z2_file, capsys, monkeypatch):
    monkeypatch.setenv("AGT_STATE_CAP", "2")
    assert main(["autstructure", z2_file]) == 3
    monkeypatch.delenv("AGT_STATE_CAP")


def test_removed_radius_flag_is_a_usage_error(z2_file, capsys):
    assert main(["autstructure", z2_file, "--check-radius", "6"]) == 2
    assert "--check-radius" in capsys.readouterr().err


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
