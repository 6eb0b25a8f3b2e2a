"""Command line contract: exit codes, determinism, golden reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subsetcurrents
from subsetcurrents import cli

# hand-checked table for the loop-with-tail family at grade 1:
# e_a is n/n = 1, e_b is 1/n, the interior a-run vertices give (n-1)/n,
# and the two cycle corners give 1/n each; the limit is the a-loop.
CONVERGE_GOLDEN = """n\t1,a\t1,b\t1,A,a\t1,A,b\t1,B,a\tN\tpushforward_terms
1\t1\t1\t0\t1\t1\t0\t0
2\t1\t1/2\t1/2\t1/2\t1/2\t0\t0
3\t1\t1/3\t2/3\t1/3\t1/3\t0\t0
4\t1\t1/4\t3/4\t1/4\t1/4\t0\t0
limit\t1\t0\t1\t0\t0\t0\t1
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return {
        "h": write("h.txt", "aa\nb\n"),
        "k": write("k.txt", "a\nbb\n"),
        "a": write("a.txt", "a\n"),
        "b": write("b.txt", "b\n"),
        "rose": write("rose.txt", "a\nb\n"),
        "phi": write("phi.txt", "ab\nb\n"),
        "bad": write("bad.txt", "zz\n"),
        "squash": write("squash.txt", "a\na\n"),
        "dir": tmp_path,
        "write": write,
    }


def run(argv, out=None):
    if out is not None:
        argv = argv + ["--out", out]
    return cli.main(argv)


def test_core_json(files, tmp_path):
    out = str(tmp_path / "core.json")
    assert run(["core", files["h"]], out) == 0
    data = json.loads(open(out).read())
    assert data["vertices"] == 2
    assert data["edges"] == 3
    assert data["rank"] == 2
    assert data["reduced_rank"] == 1
    assert data["graph"]["basepoint"] == 0


def test_core_dot(files, tmp_path):
    dot = str(tmp_path / "core.dot")
    out = str(tmp_path / "core.json")
    assert run(["core", files["h"], "--dot", dot], out) == 0
    text = open(dot).read()
    assert text.startswith("digraph")
    assert "doublecircle" in text


def test_product_golden(files, tmp_path):
    out = str(tmp_path / "product.json")
    assert run(["product", files["h"], files["k"]], out) == 0
    data = json.loads(open(out).read())
    assert data["intersection_number"] == 1
    assert data["routes"] == {"euler": 1, "cosets": 1, "cylinder": "1"}
    assert data["reduced_rank_product"] == 1
    assert data["margin"] == 0
    comps = data["components"]
    assert len(comps) == 2
    big, isolated = comps
    assert not big["contractible"] and big["euler"] == -1
    assert big["representative"] == "1"
    assert big["reduced_rank"] == 1
    assert isolated["contractible"] and isolated["generators"] == []


def test_product_rose_matches_reduced_rank(files, tmp_path):
    out = str(tmp_path / "rose.json")
    assert run(["product", files["rose"], files["h"]], out) == 0
    data = json.loads(open(out).read())
    assert data["intersection_number"] == 1


def test_product_automorphism_invariance(files, tmp_path):
    out1 = str(tmp_path / "p1.json")
    out2 = str(tmp_path / "p2.json")
    assert run(["product", files["h"], files["k"]], out1) == 0
    assert (
        run(["product", files["h"], files["k"], "--automorphism", files["phi"]], out2)
        == 0
    )
    d1 = json.loads(open(out1).read())
    d2 = json.loads(open(out2).read())
    assert d1["intersection_number"] == d2["intersection_number"]
    assert d1["reduced_rank_product"] == d2["reduced_rank_product"]


def test_product_rejects_non_automorphism(files, tmp_path, capsys):
    code = run(
        ["product", files["h"], files["k"], "--automorphism", files["squash"]],
        str(tmp_path / "x.json"),
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_shnc_scan_deterministic(files, tmp_path):
    out1 = str(tmp_path / "s1.tsv")
    out2 = str(tmp_path / "s2.tsv")
    argv = ["shnc-scan", "--samples", "12", "--seed", "3"]
    assert run(argv, out1) == 0
    assert run(argv, out2) == 0
    b1 = open(out1, "rb").read()
    b2 = open(out2, "rb").read()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "h\tk\tintersection\trk_product\tratio"
    assert len(lines) == 13


def test_shnc_scan_ratios_bounded(files, tmp_path):
    from fractions import Fraction

    out = str(tmp_path / "scan.tsv")
    assert run(["shnc-scan", "--samples", "30", "--seed", "11"], out) == 0
    for line in open(out).read().splitlines()[1:]:
        h, k, n, rkp, ratio = line.split("\t")
        if ratio == "-":
            assert rkp == "0"
        else:
            assert Fraction(ratio) <= 1


def test_converge_golden(files, tmp_path):
    out = str(tmp_path / "conv.tsv")
    assert run(["converge", "--n-max", "4", "--grade", "1"], out) == 0
    assert open(out).read() == CONVERGE_GOLDEN


def test_converge_json(files, tmp_path):
    out = str(tmp_path / "conv.json")
    assert run(["converge", "--n-max", "3", "--format", "json"], out) == 0
    rows = json.loads(open(out).read())
    assert rows[-1]["n"] == "limit"
    assert rows[-1]["pushforward_terms"] == 1
    assert all(r["N"] == "0" for r in rows)


def test_intersect_golden(files, tmp_path):
    out = str(tmp_path / "i.json")
    assert run(["intersect", files["h"], files["k"]], out) == 0
    data = json.loads(open(out).read())
    assert data["rk"] == "1"
    assert data["intersection_number"] == "1"
    assert len(data["pushforward"]) == 1
    assert data["pushforward"][0]["coefficient"] == "1"


def test_intersect_zero(files, tmp_path):
    out = str(tmp_path / "z.json")
    assert run(["intersect", files["a"], files["b"]], out) == 0
    data = json.loads(open(out).read())
    assert data["pushforward"] == []
    assert data["rk"] == "0"
    assert data["intersection_number"] == "0"


def test_usage_errors(files, tmp_path, capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert run(["core", str(tmp_path / "missing.txt")]) == 1
    assert run(["core", files["bad"]]) == 1
    assert run(["core", files["h"], "--rank", "1"]) == 1
    capsys.readouterr()


def test_math_failure_exit_code(files, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "intersection_number_cosets", lambda h, k: 999)
    code = run(["product", files["h"], files["k"]], str(tmp_path / "x.json"))
    assert code == 2
    assert "math check failed" in capsys.readouterr().err


def test_shnc_violation_exit_code(files, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "intersection_number_euler", lambda h, k: 5)
    monkeypatch.setattr(cli, "reduced_rank", lambda g: 0)
    out = str(tmp_path / "viol.tsv")
    code = run(["shnc-scan", "--samples", "2", "--seed", "0"], out)
    assert code == 2
    assert "math check failed" in capsys.readouterr().err
    # the table is still written for inspection
    assert len(open(out).read().splitlines()) == 3


def test_console_script_entry():
    # the child does not inherit pytest's sys.path, so an uninstalled
    # checkout needs the package's own src directory on PYTHONPATH
    src = str(Path(subsetcurrents.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "subsetcurrents.cli", "converge", "--n-max", "2", "--grade", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("n\t")
