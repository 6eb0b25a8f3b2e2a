"""Command line contract: exit codes, determinism, golden reports."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import subsetcurrents
from subsetcurrents import cli, fiber
from subsetcurrents.currents import (
    counting_current,
    functional_rk,
    intersection_functional_N,
    pushforward_I,
)
from subsetcurrents.stallings import (
    check_core_graph,
    core,
    from_generators,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    parse_subgroup_file,
    random_finite_index_cover,
    random_reduced_word,
    reduced_rank,
    subgroup_generators,
)
from subsetcurrents.words import Alphabet, format_word

from helpers import classify_components_oracle, render_oracle

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
    "shnc-scan --rank 7 --samples 8 --seed 11 --max-gens 4 --max-gen-len 2 --format tsv": (
        "132db6f4a66802ffc8d63ee04cc40c10f1ba52cb0a551397283ef816d28a27a3",
        None,
    ),
    "shnc-scan --rank 30 --samples 5 --seed 30 --max-gens 4 --max-gen-len 8 --format json": (
        "51204d6259d5f34c95b77861ff975da707dce8039e47f77f5ff43b58a03eb93d",
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


def golden_argv(files, key):
    """The argv of a REPORT_DIGESTS key, with each @name made a path."""
    paths = dict(
        files,
        h3=files["write"]("h3.txt", "ab\ncA\nbb\n"),
        k3=files["write"]("k3.txt", "ab\nc\nbab\n"),
        dot=str(files["dir"] / "golden.dot"),
    )
    return [paths[t[1:]] if t.startswith("@") else t for t in key.split()]


def report_digests(files, key):
    """Digests of the report (stdout and --out agree) and of the DOT file."""
    argv = golden_argv(files, key)
    out = str(files["dir"] / "golden.out")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    assert run(argv, out) == 0
    with open(out, "rb") as fh:
        report = fh.read()
    assert stdout.getvalue().encode() == report
    dot = None
    if "@dot" in key.split():
        with open(files["dir"] / "golden.dot", "rb") as fh:
            dot = hashlib.sha256(fh.read()).hexdigest()
    return hashlib.sha256(report).hexdigest(), dot


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS))
def test_report_bytes_golden(files, key):
    assert report_digests(files, key) == REPORT_DIGESTS[key]


# Report-shaped values: nested dicts and lists of strings with non-ASCII,
# quote, backslash and control characters, wide ints, bools and None.
_report_text = st.text(st.sampled_from('ab"\\\n\t\x00\x1f\x7fé€\U0001d11e '), max_size=8)
_report_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _report_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_report_text, inner, max_size=4),
    max_leaves=30,
)


def written(value) -> str:
    """The text `cli._write_json` hands its sink, chunks joined."""
    chunks: list[str] = []
    cli._write_json(value, chunks.append)
    return "".join(chunks)


@given(_report_values)
def test_json_renderer_matches_json_dumps(value):
    assert written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@st.composite
def _shaped_reports(draw):
    """Lists of dicts that reuse a few key sets, in any insertion order, at
    several depths, so that the writer's cached dict heads are met again
    at the same indent and at others."""
    key_sets = draw(st.lists(st.lists(_report_text, max_size=4, unique=True), min_size=1,
                             max_size=3))
    scalars = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _report_text

    def shaped(depth):
        if depth == 0:
            return scalars
        inner = shaped(depth - 1)
        dicts = st.sampled_from(key_sets).flatmap(st.permutations).flatmap(
            lambda keys: st.fixed_dictionaries({key: inner for key in keys}))
        return scalars | dicts | st.lists(dicts, max_size=4)

    return draw(st.lists(shaped(3), max_size=6))


@given(_shaped_reports())
def test_json_renderer_matches_json_dumps_on_repeated_shapes(value):
    assert written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_json_renderer_reads_a_bool_as_a_bool_in_a_cached_shape():
    text = written([{"a": 1}, {"a": True}, {"a": False}, {"a": 0}])
    assert text == json.dumps([{"a": 1}, {"a": True}, {"a": False}, {"a": 0}], indent=2) + "\n"
    assert '"a": true' in text and '"a": false' in text


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS))
def test_json_renderer_matches_json_dumps_on_golden_reports(files, key):
    args = cli._parser().parse_args(golden_argv(files, key) + ["--format", "json"])
    code, report, _ = cli._handler(args.command)(args)
    assert code == cli.EXIT_OK
    assert written(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    1.5, {"N": 0.5}, [(1, 2)], {"gens": (1,)}, {1: "a"},
    # only a later entry of a repeated shape is bad
    [{"a": 1}, {"a": 1.5}], [{"g": [1]}, {"g": [(1,)]}], [{"a": 1}, {1: "a"}],
])
def test_json_renderer_refuses_what_a_report_cannot_hold(value):
    with pytest.raises(TypeError):
        written(value)


def _long_report(n):
    """A report and TSV rows that span several chunks: n entries of one
    shape, a flat list of n ints and a dict of n keys."""
    entries = [
        {"i": i, "word": "aB" * (i % 5), "flag": i % 3 == 0, "gens": ["a", "Bb"][: i % 3],
         "none": None, "nested": {"i": [i, -i]} if i % 2 else {}}
        for i in range(n)
    ]
    report = {"entries": entries, "flat": list(range(n)), "wide": {f"k{i}": i for i in range(n)}}
    rows = [["i", "word", "flag", "gens"]] + [
        [e["i"], e["word"], e["flag"], e["gens"]] for e in entries
    ]
    return report, rows


class _Chunks(io.StringIO):
    """A stdout that keeps each write."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_reports_across_chunk_boundaries(files, tmp_path, monkeypatch, fmt):
    report, rows = _long_report(3 * cli._CHUNK_PIECES + 5)
    monkeypatch.setattr(cli, "cmd_core", lambda args: (cli.EXIT_OK, report, rows))
    stdout = _Chunks()
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ["core", files["h"], "--format", fmt]
    assert cli.main(argv) == 0
    out = tmp_path / f"long.{fmt}"
    assert cli.main(argv + ["--out", str(out)]) == 0
    expected = render_oracle(fmt, report, rows)
    if fmt == "json":
        assert expected == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert stdout.getvalue() == expected
    assert out.read_text(encoding="utf-8") == expected
    # each chunk holds at most _CHUNK_PIECES pieces for each level of
    # nesting, and a piece here is under 40 characters
    assert len(stdout.chunks) > 3
    assert max(map(len, stdout.chunks)) < 4 * cli._CHUNK_PIECES * 40


def test_a_failed_write_leaves_the_old_file(files, tmp_path, monkeypatch):
    report, rows = _long_report(3 * cli._CHUNK_PIECES)
    report["entries"][-1]["word"] = 0.5
    monkeypatch.setattr(cli, "cmd_core", lambda args: (cli.EXIT_OK, report, rows))
    out = tmp_path / "out" / "report.json"
    out.parent.mkdir()
    out.write_bytes(b"old bytes\n")
    dropped = []
    unlink = os.unlink
    monkeypatch.setattr(os, "unlink", lambda path: (dropped.append(os.path.getsize(path)),
                                                    unlink(path)))
    with pytest.raises(TypeError, match="cannot hold a float"):
        cli.main(["core", files["h"], "--out", str(out)])
    # several chunks reached the sibling before the float was met
    assert len(dropped) == 1 and dropped[0] > 3 * cli._CHUNK_PIECES
    assert out.read_bytes() == b"old bytes\n"
    assert os.listdir(out.parent) == ["report.json"]


def test_a_written_file_keeps_its_mode_and_its_symlink(files, tmp_path):
    out = tmp_path / "report.json"
    out.write_text("old\n" * 10000)
    out.chmod(0o600)
    link = tmp_path / "link.json"
    link.symlink_to(out)
    assert cli.main(["core", files["h"], "--out", str(link)]) == 0
    assert link.is_symlink() and json.loads(out.read_text())["vertices"] == 2
    assert out.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")) == []


def _pair_8x30(files):
    """The generator files of acceptance 13's 8x30 pair: 20,384 components."""
    rng = random.Random(5)
    alphabet = Alphabet(2)
    return [
        files["write"](name, "".join(
            format_word(random_reduced_word(rng, alphabet, 30), alphabet) + "\n"
            for _ in range(8)))
        for name in ("h30.txt", "k30.txt")
    ]


# The tracemalloc peak of writing a report to a file, whatever its length:
# 0.47 MiB (JSON) and 0.72 MiB (TSV) measured for acceptance 13's report and
# for it doubled, against 22.4 MiB and 2.7 MiB for the one whole text the
# writer used to join.  The TSV peak counts the building of the rows, which
# are read from the report as they are written.
WRITER_PEAK_BOUND = 1 << 20


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_writer_footprint_does_not_grow_with_the_report(files, tmp_path, monkeypatch, fmt):
    argv = ["product", *_pair_8x30(files), "--format", fmt, "--out", str(tmp_path / "report")]
    code, report, rows = cli.cmd_product(cli._parser().parse_args(argv))
    assert len(report["components"]) == 20384
    rows = list(rows)
    head = rows[:-len(report["components"])]

    def rows_of(report):
        # read lazily from the report, as cmd_product reads its rows
        return chain(head, (("component", *entry.values()) for entry in report["components"]))

    assert list(rows_of(report)) == rows
    doubled = dict(report, components=report["components"] * 2)
    for report in (report, doubled):
        expected = render_oracle(fmt, report, list(rows_of(report)))
        # an iterator is read once, so each run gets fresh rows
        monkeypatch.setattr(cli, "cmd_product", lambda args: (code, report, rows_of(report)))
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "report").read_text(encoding="utf-8") == expected
        assert peak < WRITER_PEAK_BOUND
    assert len(expected) > WRITER_PEAK_BOUND


# The tracemalloc peak of a whole `product` run on acceptance 13's 8x30 pair,
# in either format: 14.1 MiB (JSON) and 13.9 MiB (TSV) measured where the
# Euler and cylinder routes run before the fiber product is built and TSV
# rows are read from the report, against 23.6 MiB and 23.3 MiB where both
# report forms were built and both products were held at once.
PRODUCT_PEAK_BOUND = 16 << 20


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_product_holds_one_product_and_one_report_form(files, tmp_path, fmt):
    argv = ["product", *_pair_8x30(files), "--format", fmt, "--out", str(tmp_path / "report")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PRODUCT_PEAK_BOUND


def test_intersect_json_renders_no_tsv_cell(files, monkeypatch):
    # the TSV form of a term graph is its json.dumps, which a JSON report
    # never needs
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called for a JSON report")

    monkeypatch.setattr(cli.json, "dumps", refuse)
    key = "intersect @h @k --format json"
    assert report_digests(files, key) == REPORT_DIGESTS[key]


def test_patched_command_runs_after_the_parser_is_built(files, monkeypatch, capsys):
    # perfbench/tracer.py wraps the cmd_* functions after the CLI is imported
    assert cli.main(["core", files["h"]]) == 0
    capsys.readouterr()
    seen = []

    def fake(args):
        seen.append(args.subgroup)
        return cli.EXIT_OK, {"fake": True}, [["fake"]]

    monkeypatch.setattr(cli, "cmd_core", fake)
    assert cli.main(["core", files["h"], "--format", "tsv"]) == 0
    assert seen == [files["h"]]
    assert capsys.readouterr().out == "fake\n"


def test_one_parser_serves_a_usage_error_and_every_golden_argv(files, monkeypatch, capsys):
    assert cli.main(["core", "--rank"]) == 1
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["shnc-scan", "--samples", "0"]) == 1
    capsys.readouterr()
    for key in sorted(REPORT_DIGESTS):
        assert report_digests(files, key) == REPORT_DIGESTS[key]
    assert built == []


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


def test_product_dot_cycles_the_palette(files, tmp_path):
    # 22 components, so the 7 colours wrap around three times; the expected
    # DOT is coloured from the oracle's per-component vertex lists.
    h = files["write"]("h8.txt", "aaabb\nbabab\n")
    k = files["write"]("k8.txt", "abbaa\naabba\n")
    dot = str(tmp_path / "product.dot")
    assert run(["product", h, k, "--dot", dot], str(tmp_path / "x.json")) == 0
    alphabet = Alphabet(2)
    fp = fiber.fiber_product(
        *(from_generators(parse_subgroup_file(Path(p).read_text(), alphabet), alphabet)
          for p in (h, k))
    )
    palette = ["red", "blue", "green", "orange", "purple", "brown", "cyan"]
    comps = classify_components_oracle(fp)
    assert len(comps) == 22
    colors = {v: palette[i % 7] for i, comp in enumerate(comps) for v in comp.vertices}
    with open(dot, encoding="utf-8") as fh:
        assert fh.read() == graph_to_dot(fp.graph, component_colors=colors) + "\n"


def test_product_rose_matches_reduced_rank(files, tmp_path):
    out = str(tmp_path / "rose.json")
    assert run(["product", files["rose"], files["h"]], out) == 0
    data = json.loads(open(out).read())
    assert data["intersection_number"] == 1


@pytest.mark.parametrize("rank", [2, 3])
def test_product_of_finite_index_covers_at_the_bound(files, tmp_path, rank):
    # Index-d subgroups of F_r have rr = (r-1)d, and every intersection of
    # conjugates has finite index, so N = (r-1)*d1*d2: the bound rr(H)rr(K)
    # is met at rank 2 (margin 0) and N is half of it at rank 3.
    alphabet = Alphabet(rank)
    rose = from_generators([(x,) for x in alphabet.letters()], alphabet)
    rng = random.Random(rank)
    for d1 in range(2, 7):
        for d2 in range(2, 7):
            h, k = (random_finite_index_cover(rose, d, rng) for d in (d1, d2))
            n = (rank - 1) * d1 * d2
            mu, nu = counting_current(h), counting_current(k)
            assert fiber.intersection_number_euler(h, k) == n
            assert fiber.intersection_number_cosets(h, k) == n
            assert intersection_functional_N(mu, nu) == n
            assert functional_rk(pushforward_I(mu, nu)) == n
            paths = [
                files["write"](f"{name}.txt", "".join(
                    format_word(w, alphabet) + "\n" for w in subgroup_generators(g)))
                for name, g in (("fh", h), ("fk", k))
            ]
            out = str(tmp_path / "bound.json")
            assert run(["product", *paths, "--rank", str(rank)], out) == 0
            data = json.loads(open(out).read())
            assert data["routes"] == {"euler": n, "cosets": n, "cylinder": str(n)}
            assert data["reduced_rank_product"] == (rank - 1) * n
            assert data["margin"] == (rank - 2) * n


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
    assert run(["core", files["h"], "--rank", "100000"]) == 1
    assert "rank 100000 exceeds the ceiling of 4096" in capsys.readouterr().err
    assert cli.main(["shnc-scan", "--samples", "abc"]) == 1
    capsys.readouterr()


def test_product_edge_budget_exits_1(files, monkeypatch, capsys):
    """A product above `MAX_PRODUCT_EDGES` is an input error (exit 1) that
    names its sizes, from every command that walks one."""
    monkeypatch.setattr(fiber, "MAX_PRODUCT_EDGES", 3)
    for cmd in ("product", "intersect"):
        assert run([cmd, files["h"], files["k"]]) == 1
        err = capsys.readouterr().err
        assert "a fiber product of 2 x 2 vertices has 4 edges, above the budget of 3" in err
    assert run(["shnc-scan", "--samples", "3"]) == 1
    assert "above the budget of 3" in capsys.readouterr().err


def test_product_pair_budget_exits_1(files, monkeypatch, capsys):
    """A product of more than `MAX_PRODUCT_PAIRS` vertex pairs is an input
    error (exit 1) that names V1, V2, the pairs and the bound, from both
    commands that hold every pair."""
    monkeypatch.setattr(fiber, "MAX_PRODUCT_PAIRS", 3)
    for cmd in ("product", "intersect"):
        assert run([cmd, files["h"], files["k"]]) == 1
        err = capsys.readouterr().err
        assert "a fiber product of 2 x 2 vertices has 4 vertex pairs, above the budget of 3" in err


def _lose_generators(fp, comp):
    """`component_subgroup` with the right representative and no generators."""
    return fiber.component_subgroup(fp, comp)[0], []


def test_math_failure_exit_code(files, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "component_subgroup", _lose_generators)
    code = run(["product", files["h"], files["k"]], str(tmp_path / "x.json"))
    assert code == 2
    assert "math check failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, attr, fake, routes",
    [
        # the cosets route is the sum of the reported ranks, so lost
        # generators show in the route check
        ("product", "component_subgroup", _lose_generators,
         {"euler": 1, "cosets": 0, "cylinder": "1"}),
        # zero only the factors <aa,b> and <a,bb> (two vertices each), not
        # their three-vertex intersection, so the routes agree and the
        # rk-product bound is what fails
        ("product", "reduced_rank", lambda g: 0 if g.num_vertices == 2 else reduced_rank(g),
         {"euler": 1, "reduced_rank_product": 0}),
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


def test_contractible_flag_fault_leaves_euler_alone(files, tmp_path, monkeypatch, capsys):
    # No N route reads a report lost by classify_components: the Euler route
    # prunes the product, c_hat counts trees by its own union pass, and a
    # lost tree has reduced rank 0.  product's coverage check catches it.
    classify = fiber.classify_components

    def drop_one_tree(fp):
        reports = classify(fp)
        first = next(i for i, c in enumerate(reports) if c.contractible)
        return reports[:first] + reports[first + 1:]

    alphabet = Alphabet(2)
    h, k = (
        from_generators(parse_subgroup_file(Path(files[key]).read_text(), alphabet), alphabet)
        for key in ("h", "k")
    )
    mu, nu = counting_current(h), counting_current(k)
    assert intersection_functional_N(mu, nu) == 1
    monkeypatch.setattr(fiber, "classify_components", drop_one_tree)
    assert fiber.intersection_number_euler(h, k) == 1
    assert fiber.intersection_number_euler(core(h), core(k)) == 1
    assert intersection_functional_N(mu, nu) == 1
    assert run(["product", files["h"], files["k"]], str(tmp_path / "x.json")) == 2
    err = capsys.readouterr().err
    assert "component reports do not cover the fiber product" in err
    dump = json.loads(err[err.index("{"):])
    assert dump["covered_pairs"] == dump["pairs"] - 1 == h.num_vertices * k.num_vertices - 1
    assert dump["covered_edges"] == dump["product_edges"]


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
    # a directory is refused, and no sibling is left beside it
    before = sorted(os.listdir(tmp_path))
    assert cli.main(["core", files["h"], flag, str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(os.listdir(tmp_path)) == before


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
