"""Command line contract: exit codes, determinism, golden reports."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subsetcurrents
from subsetcurrents import cli, fiber
from subsetcurrents.stallings import (
    check_core_graph,
    from_generators,
    graph_from_json_dict,
    graph_to_json_dict,
    parse_subgroup_file,
)
from subsetcurrents.words import Alphabet

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

# sha256 of the report bytes, and of the DOT file where one is written,
# for each argv; "@name" stands for the path of a generator file.
REPORT_DIGESTS = {
    "core @h --format tsv": (
        "a11a31bb5a36464100ee92dc2ab41029ce16e13421399caae1eadc819c3aea8d",
        None,
    ),
    "core @h --format json": (
        "3e86871427d362a59298659d8085a9618f041922a828540d7c8891492dee80c4",
        None,
    ),
    "core @h --dot @dot": (
        "3e86871427d362a59298659d8085a9618f041922a828540d7c8891492dee80c4",
        "9892024631271dbad1e3f23abf16414bbfc90bc3d971932d235277451d0c5e28",
    ),
    "core @h3 --rank 3 --format tsv": (
        "49494b54d7cd89c5defdec71d766d061402dcf1c821fb49f0cf5ab3d3340851c",
        None,
    ),
    "product @h @k --format tsv": (
        "a77facc03d5b4b8d2a5c6387124836f4155727707d9d2fed12013f3f0eab58bc",
        None,
    ),
    "product @h @k --format json": (
        "e5fe3f023b379159db9bb1ed5fb91b948c0434d4b8c64d9136950d663bdcedd7",
        None,
    ),
    "product @h @k --automorphism @phi --format tsv": (
        "aa7e6cc63068f20c42a9a638d9dcf551e0795f801082445dae71a558ded7dc8d",
        None,
    ),
    "product @h @k --dot @dot": (
        "e5fe3f023b379159db9bb1ed5fb91b948c0434d4b8c64d9136950d663bdcedd7",
        "a4ad26dcf0b62c240ed18220770e5bf4104d15a54580fbb25a12ad88e3a17a5a",
    ),
    "product @h3 @k3 --rank 3 --format tsv": (
        "097a1599d26a33783f921899d58c3bfa637dd87c1ba2647409c27e1a39755e06",
        None,
    ),
    "product @h3 @k3 --rank 3 --format json": (
        "61eed6edf7c1824f18e46d206321f513625a05816e1df2d24c9c3ceef428be50",
        None,
    ),
    "shnc-scan --samples 6 --seed 5 --format tsv": (
        "9475023a6716fe8fe078fa8c9195013f375421f24bf019dc0ed237ca526ce659",
        None,
    ),
    "shnc-scan --samples 6 --seed 5 --format json": (
        "86585061f5e040e0f493479f645f25ead9097e37d74fc29bb040f8b12768a588",
        None,
    ),
    "shnc-scan --rank 3 --samples 4 --seed 1 --max-gens 2 --max-gen-len 4": (
        "7abb02a36cc821ec2cc6d4f1d8118d2b93e4c7d110cba0ac06e93f7f0b454b58",
        None,
    ),
    "converge --n-max 3 --grade 2 --format tsv": (
        "c5553c48d1aceb2bc66f540feccb95587d5aadcacb0056c261cd91213af984f4",
        None,
    ),
    "converge --n-max 3 --grade 2 --format json": (
        "935bda231b4b41988517a68da4c9cc0835ca3da16dc10f6ebe6b1cb30ccc6577",
        None,
    ),
    "converge --rank 3 --n-max 2 --grade 1 --format json": (
        "058f54b37e98c283857ebe7bad6cdccfac36dbde85d7c673ede2f8cbf83f0191",
        None,
    ),
    "intersect @h @k --format tsv": (
        "067910e66e57d342f1d1e4051b1790305991afc94ea41115130216a947cc50f7",
        None,
    ),
    "intersect @h @k --format json": (
        "7fd53d61f82ad434e8264cf2ed75dec89ed7d05468765db0d26916ef14880985",
        None,
    ),
    "intersect @h3 @k3 --rank 3 --format tsv": (
        "6a47cd475f1a8e9a081a9f1e2c8ce3f6b7f4df80eb328dcb80f12abc8f638601",
        None,
    ),
}


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


def report_digests(files, key):
    """Digests of the report (stdout and --out agree) and of the DOT file."""
    paths = dict(
        files,
        h3=files["write"]("h3.txt", "ab\ncA\nbb\n"),
        k3=files["write"]("k3.txt", "ab\nc\nbab\n"),
        dot=str(files["dir"] / "golden.dot"),
    )
    tokens = key.split()
    argv = [paths[t[1:]] if t.startswith("@") else t for t in tokens]
    out = str(files["dir"] / "golden.out")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    assert run(argv, out) == 0
    with open(out, "rb") as fh:
        report = fh.read()
    assert stdout.getvalue().encode() == report
    dot = None
    if "@dot" in tokens:
        with open(paths["dot"], "rb") as fh:
            dot = hashlib.sha256(fh.read()).hexdigest()
    return hashlib.sha256(report).hexdigest(), dot


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS))
def test_report_bytes_golden(files, key):
    assert report_digests(files, key) == REPORT_DIGESTS[key]


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


@pytest.mark.parametrize(
    "command, attr, fake, routes",
    [
        ("product", "intersection_number_cosets", lambda h, k: 999,
         {"euler": 1, "cosets": 999, "cylinder": "1"}),
        ("product", "reduced_rank", lambda g: 0, {"euler": 1, "reduced_rank_product": 0}),
        ("intersect", "functional_rk", lambda mu: 5, {"rk": 5, "intersection_number": "1"}),
    ],
)
def test_math_failure_dump_replays(files, tmp_path, monkeypatch, capsys, command, attr, fake,
                                   routes):
    monkeypatch.setattr(cli, attr, fake)
    code = run([command, files["h"], files["k"]], str(tmp_path / "x.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("math check failed: ")
    dump = json.loads(err[err.index("{"):])
    assert {key: dump[key] for key in routes} == routes
    alphabet = Alphabet(2)
    for key in ("H", "K"):
        with open(files[key.lower()], encoding="utf-8") as fh:
            given = from_generators(parse_subgroup_file(fh.read(), alphabet), alphabet)
        assert graph_to_json_dict(graph_from_json_dict(dump[key])) == graph_to_json_dict(given)
    h, k = (check_core_graph(graph_from_json_dict(dump[key])) for key in ("H", "K"))
    assert fiber.intersection_number_cosets(h, k) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["shnc-scan", "--samples", "0"],
        ["shnc-scan", "--samples", "-1"],
        ["shnc-scan", "--max-gens", "0"],
        ["shnc-scan", "--max-gen-len", "0"],
        ["converge", "--n-max", "0"],
        ["converge", "--grade", "-2"],
    ],
)
def test_count_options_must_be_positive(argv, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: argument {argv[1]}: must be at least 1")


@pytest.mark.parametrize("flag", ["--out", "--dot"])
def test_unwritable_output_is_an_input_error(files, tmp_path, capsys, flag):
    target = str(tmp_path / "no" / "such" / "dir" / "x")
    assert cli.main(["core", files["h"], flag, target]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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
