"""The public API, the package functions the benchmark tracer wraps, and
derandomized fuzzes of every public door: each input is answered or
refused with a `ValueError`.

A rename or removal here is an API change: it must show up as a failing
test, not as a crash of `perfbench/run.py --trace 1`.
"""

import argparse
import ast
import copy
import functools
import importlib
import importlib.util
import inspect
import json
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import subsetcurrents
from subsetcurrents import cli
from subsetcurrents import (
    Alphabet,
    Endomorphism,
    FiniteSubtree,
    LabeledGraph,
    canonical_key,
    check_round_graph,
    component_subgroup,
    core,
    counting_current,
    eval_cylinder,
    fiber_product,
    from_generators,
    graph_from_json_dict,
    neighborhood_tree,
    normalize,
    parse_automorphism_file,
    parse_subgroup_file,
    parse_word,
    subgroup_generators,
)

from helpers import GOOD_JSON

PUBLIC = [
    "Alphabet", "ComponentReport", "EmptyCoreError", "Endomorphism", "FiberProduct",
    "FiniteSubtree", "IDENTITY", "LabeledGraph", "MismatchBugError",
    "NotAutomorphismError", "NotConnectedError", "NotSubgroupError", "RationalCurrent",
    "RetryLimitError", "SizeLimitError", "TrivialSubgroupError", "Word", "WordFormatError",
    "act_on_current", "act_on_subgroup", "apply_word", "c_hat",
    "canonical_key", "canonical_key_based", "check_core_graph", "check_round_graph",
    "classify_components", "commensurator", "component_subgroup", "concat", "contains",
    "core", "core_based", "count_round_graphs", "counting_current", "current_to_json_dict",
    "cyclic_reduce", "enumerate_round_graphs", "eval_cylinder", "fiber_product",
    "finite_index", "fold", "format_word", "from_generators", "functional_E",
    "functional_V", "functional_rk", "graph_from_json_dict", "graph_to_dot",
    "graph_to_json_dict", "intersection_functional_N", "intersection_number_cosets",
    "intersection_number_euler", "invert", "is_automorphism", "minimal_covering_quotient",
    "neighborhood_profile", "neighborhood_tree", "nielsen_generators", "normalize",
    "occurrence_count", "parse_automorphism_file", "parse_subgroup_file", "parse_word",
    "pushforward_I", "random_automorphism", "random_finite_index_cover",
    "random_reduced_word", "random_subgroup", "rank", "reduced_rank",
    "subgroup_generators", "zero_current",
]

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_public_names_pinned():
    names = subsetcurrents.__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == PUBLIC
    for name in names:
        getattr(subsetcurrents, name)


# Parameters of every public function and class, in order: `name=` has a
# default, `*name` collects positionals.  A new option fails here first.
SIGNATURES = {
    "Alphabet": "rank",
    "ComponentReport": "base_vertex num_vertices num_edges",
    "Endomorphism": "images alphabet",
    "FiberProduct": "left right",
    "FiniteSubtree": "words",
    "LabeledGraph": "rank num_vertices edges basepoint=",
    "RationalCurrent": "terms",
    "act_on_current": "phi mu",
    "act_on_subgroup": "phi h",
    "apply_word": "phi w",
    "c_hat": "mu nu",
    "canonical_key": "graph",
    "canonical_key_based": "h",
    "check_core_graph": "graph",
    "check_round_graph": "tree grade",
    "classify_components": "fp",
    "commensurator": "h",
    "component_subgroup": "fp comp",
    "concat": "*words",
    "contains": "h w",
    "core": "graph",
    "core_based": "graph",
    "count_round_graphs": "r alphabet",
    "counting_current": "g",
    "current_to_json_dict": "mu",
    "cyclic_reduce": "w",
    "enumerate_round_graphs": "r alphabet",
    "eval_cylinder": "mu tree",
    "fiber_product": "g1 g2",
    "finite_index": "h k",
    "fold": "graph",
    "format_word": "w alphabet",
    "from_generators": "gens alphabet",
    "functional_E": "mu",
    "functional_V": "mu",
    "functional_rk": "mu",
    "graph_from_json_dict": "data",
    "graph_to_dot": "graph component_colors=",
    "graph_to_json_dict": "graph",
    "intersection_functional_N": "mu nu",
    "intersection_number_cosets": "h k",
    "intersection_number_euler": "h k",
    "invert": "w",
    "is_automorphism": "phi",
    "minimal_covering_quotient": "graph",
    "neighborhood_profile": "graph r",
    "neighborhood_tree": "graph v r",
    "nielsen_generators": "alphabet",
    "normalize": "terms",
    "occurrence_count": "tree graph",
    "parse_automorphism_file": "text alphabet",
    "parse_subgroup_file": "text alphabet",
    "parse_word": "text alphabet",
    "pushforward_I": "mu nu",
    "random_automorphism": "rng alphabet length",
    "random_finite_index_cover": "h degree rng",
    "random_reduced_word": "rng alphabet length",
    "random_subgroup": "rng alphabet max_gens= max_len=",
    "rank": "graph",
    "reduced_rank": "g",
    "subgroup_generators": "h",
    "zero_current": "",
}


GRAPH_PARAMETERS = {"graph", "h", "k", "g", "g1", "g2"}
# (function, the graph parameter the fuzzed graph fills, its required
# parameters) for every public function above that takes a graph
GRAPH_CALLS = [
    (name, slot, required)
    for name, spelled in SIGNATURES.items()
    for required in [[p for p in spelled.split() if not p.endswith("=")]]
    for slot in required
    if slot in GRAPH_PARAMETERS
]


@functools.cache
def _companions(rank: int) -> dict:
    """Fixed values for the other parameters of a graph-taking function: the
    rose of the rank fills every other graph parameter.  A parameter name
    missing here fails the fuzz test, so a new function gets a value."""
    alphabet = Alphabet(rank)
    letters = [(x,) for x in range(1, rank + 1)]
    rose = from_generators(letters, alphabet)
    return {
        "rose": rose, "w": (1,), "degree": 2, "r": 1, "v": 0,
        "phi": Endomorphism(letters, alphabet),
        "tree": neighborhood_tree(rose, 0, 1),
    }


def _arguments(slot: str, required: list[str], g: LabeledGraph) -> dict:
    fixed = _companions(g.rank)
    args = {}
    for p in required:
        if p == slot:
            args[p] = g
        elif p in GRAPH_PARAMETERS:
            args[p] = fixed["rose"]
        elif p == "rng":
            args[p] = random.Random(0)
        else:
            args[p] = fixed[p]
    return args


@st.composite
def small_graphs(draw) -> LabeledGraph:
    """Rank 2-3, at most 5 vertices and 2V random edges: folded or not,
    connected or not, with a random basepoint or none."""
    rank = draw(st.integers(2, 3))
    n = draw(st.integers(0, 5))
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, rank)), max_size=2 * n))
    basepoint = draw(st.none() | vertex) if n else None
    return LabeledGraph(rank, n, edges, basepoint=basepoint)


def _every_component_subgroup(g: LabeledGraph) -> None:
    fp = fiber_product(g, _companions(g.rank)["rose"])
    for comp in fp.components():
        component_subgroup(fp, comp)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(small_graphs())
def test_graph_taking_functions_answer_or_refuse_any_small_graph(g):
    """Every public function that takes a graph, and `component_subgroup`
    over the product with the rose, returns or raises a `ValueError`
    subclass on any small graph: never a `KeyError`, `IndexError`,
    `TypeError`, `AttributeError` or `MismatchBugError`."""
    calls = [
        (f"{name}({slot}=g)", functools.partial(
            getattr(subsetcurrents, name), **_arguments(slot, required, g)
        ))
        for name, slot, required in GRAPH_CALLS
    ]
    calls.append(("component_subgroup(fiber_product(g, rose))",
                  functools.partial(_every_component_subgroup, g)))
    spelled = f"LabeledGraph({g.rank}, {g.num_vertices}, {g.edges}, basepoint={g.basepoint})"
    for label, call in calls:
        _answers_or_refuses(f"{label} on {spelled}", call)


def _answers_or_refuses(label: str, call):
    """The call's value, or None when it raised a `ValueError` subclass; any
    other exception fails the test, naming the call."""
    try:
        return call()
    except ValueError:
        return None
    except Exception as exc:
        raise AssertionError(f"{label} raised {type(exc).__name__}: {exc}") from exc


# Values one field of an input can be replaced with: the right type and
# range, out of range, and every wrong JSON type.
ODD_VALUES = st.one_of(
    st.integers(-2, 4), st.floats(allow_nan=False), st.booleans(), st.text(max_size=3),
    st.none(), st.lists(st.integers(-1, 3), max_size=4),
)


@st.composite
def near_miss_json(draw):
    """`GOOD_JSON` with one field, vertex or edge entry replaced by an odd
    value, or dropped."""
    data = copy.deepcopy(GOOD_JSON)
    places = [(data, key) for key in data]
    places += [(data["vertices"], i) for i in range(2)] + [(data["edges"], i) for i in range(2)]
    places += [(edge, i) for edge in data["edges"] for i in range(3)]
    container, key = draw(st.sampled_from(places))
    if draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(ODD_VALUES)
    return data


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(near_miss_json())
def test_near_miss_json_is_read_or_refused(data):
    g = _answers_or_refuses(f"graph_from_json_dict({data!r})", lambda: graph_from_json_dict(data))
    if g is None:
        return
    for fn in (core, counting_current, subgroup_generators, canonical_key):
        _answers_or_refuses(f"{fn.__name__} of {data!r}", functools.partial(fn, g))


# Pieces of word text: both formats, identities, comments, blanks, letters
# beyond rank 2, unknown tokens, a backslash and a tab.
WORD_TOKENS = ["a", "aA", "B", "1", "", " ", "x1X2", "X3", "x0", "x", "c", "#c", "\\", "é", "\t"]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.lists(st.lists(st.sampled_from(WORD_TOKENS), max_size=4), max_size=4),
       st.integers(2, 3))
def test_near_miss_word_text_is_parsed_or_refused(lines, rank):
    alphabet = Alphabet(rank)
    text = "\n".join("".join(line) for line in lines)
    for fn in (parse_word, parse_subgroup_file, parse_automorphism_file):
        _answers_or_refuses(f"{fn.__name__}({text!r}, rank {rank})",
                            functools.partial(fn, text, alphabet))


@st.composite
def near_miss_subtrees(draw):
    """A prefix-closed set of reduced words of length <= 3 at rank 2 or 3,
    with one letter replaced by an odd value or one odd word added, or left
    as it is."""
    rank = draw(st.integers(2, 3))
    signed = Alphabet(rank).signed_letters()
    words = [()]
    for _ in range(draw(st.integers(0, 8))):
        base = draw(st.sampled_from(words))
        s = draw(st.sampled_from(signed))
        if len(base) < 3 and not (base and s == -base[-1]) and base + (s,) not in words:
            words.append(base + (s,))
    change = draw(st.sampled_from(["none", "letter", "word"]))
    if change == "letter" and len(words) > 1:
        i = draw(st.integers(1, len(words) - 1))
        j = draw(st.integers(0, len(words[i]) - 1))
        words[i] = words[i][:j] + (draw(ODD_VALUES),) + words[i][j + 1:]
    elif change == "word":
        words.append(draw(st.lists(ODD_VALUES, max_size=3)))
    return rank, words


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(near_miss_subtrees(), ODD_VALUES | st.fractions(max_denominator=5))
def test_near_miss_subtrees_and_coefficients_are_read_or_refused(drawn, coefficient):
    rank, words = drawn
    rose = _companions(rank)["rose"]
    eta = counting_current(rose)
    tree = _answers_or_refuses(f"FiniteSubtree({words!r})", lambda: FiniteSubtree(words))
    if tree is not None:
        for grade in (1, 2, 3):
            _answers_or_refuses(f"check_round_graph({words!r}, {grade})",
                                functools.partial(check_round_graph, tree, grade))
        _answers_or_refuses(f"eval_cylinder(eta, {words!r})",
                            functools.partial(eval_cylinder, eta, tree))
    _answers_or_refuses(f"normalize([({coefficient!r}, rose)])",
                        lambda: normalize([(coefficient, rose)]))
    _answers_or_refuses(f"eta.scale({coefficient!r})", functools.partial(eta.scale, coefficient))


# Lines of a generator file: rank-2 words, so that some files name a
# subgroup, then words of both formats, the identity, blanks, comments, a
# letter beyond rank 2, and tokens run together, which can mix the two
# formats on one line.
FILE_TOKENS = ["a", "b", "aA", "1", "", "x1X2", "c", "#c", "abA", "aBAb", "x2x3", "X1x1"]
FILE_LINES = (
    st.sampled_from(["a", "b", "aab", "bAB", "abab", "x1x1x2"])
    | st.sampled_from(FILE_TOKENS)
    | st.lists(st.sampled_from(FILE_TOKENS), min_size=2, max_size=3).map("".join)
)
GENERATOR_FILES = st.lists(FILE_LINES, max_size=4)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(h=GENERATOR_FILES, k=GENERATOR_FILES, rank=st.integers(2, 3),
       fmt=st.sampled_from(["tsv", "json"]), count=st.integers(1, 3))
def test_every_subcommand_exits_0_or_1_on_random_generator_files(
    tmp_path_factory, h, k, rank, fmt, count
):
    """The CLI twin of the fuzz above: every subcommand, on generator files
    built from word tokens (the second file also serves as an automorphism
    file), exits 0 or 1 and raises nothing."""
    folder = tmp_path_factory.getbasetemp() / "cli-fuzz"
    folder.mkdir(exist_ok=True)
    files = {}
    for name, lines in (("h", h), ("k", k)):
        files[name] = folder / f"{name}.txt"
        files[name].write_text("\n".join(lines), encoding="utf-8")
    common = ["--rank", str(rank), "--format", fmt, "--out", str(folder / "report")]
    runs = [
        ["core", str(files["h"]), "--dot", str(folder / "core.dot")],
        ["product", str(files["h"]), str(files["k"])],
        ["product", str(files["h"]), str(files["h"]), "--automorphism", str(files["k"])],
        ["intersect", str(files["h"]), str(files["k"])],
        ["shnc-scan", "--seed", str(count), "--samples", str(count), "--max-gen-len", "3"],
        ["converge", "--n-max", str(count), "--grade", "1"],
    ]
    for argv in runs:
        code = _answers_or_refuses(" ".join(argv), lambda: cli.main(argv + common))
        assert code in (0, 1), (argv, code)


def _spelled(param: inspect.Parameter) -> str:
    star = "*" if param.kind is param.VAR_POSITIONAL else ""
    default = "" if param.default is param.empty else "="
    return star + param.name + default


def test_public_signatures_pinned():
    found = {}
    for name in subsetcurrents.__all__:
        obj = getattr(subsetcurrents, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            found[name] = " ".join(map(_spelled, params))
    assert found == SIGNATURES


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve a module's annotations through sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load("perfbench_tracer", TRACER)


def test_tracer_layers_resolve():
    tracer = _tracer()
    for module, names in tracer.LAYERS.items():
        mod = importlib.import_module(f"subsetcurrents.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_every_subcommand_dispatches_to_a_traced_cmd():
    # a renamed command must not drop out of the tracer's cli layer
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    handlers = set()
    for command in sub.choices:
        fn = cli._handler(command)
        assert fn.__name__.startswith("cmd_")
        assert getattr(cli, fn.__name__) is fn, command
        handlers.add(fn.__name__)
    assert handlers == set(_tracer().LAYERS["cli"])


def test_traced_product_builds_one_based_product(tmp_path):
    # <aa,b> and <a,bb> meet in one essential component; the based product
    # is built once, and c_hat counts its trees without building a product
    h, k, out = tmp_path / "h.txt", tmp_path / "k.txt", tmp_path / "p.json"
    h.write_text("aa\nb\n", encoding="utf-8")
    k.write_text("a\nbb\n", encoding="utf-8")
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        assert cli.main(["product", str(h), str(k), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    components = json.loads(out.read_text(encoding="utf-8"))["components"]
    assert any(not c["contractible"] for c in components)
    metrics = tracer.layer_metrics(1)
    assert metrics["cli.cmd_product.calls"] == 1
    assert metrics["fiber.fiber_product.calls"] == 1
    assert metrics["fiber.intersection_number_cosets.calls"] == 0
    assert metrics["fiber.component_subgroup.calls"] == len(components)


def test_traced_product_checks_the_automorphism_once(tmp_path):
    # phi = (a -> ab, b -> b) is checked once for both factors, then acts twice
    h, k, phi = tmp_path / "h.txt", tmp_path / "k.txt", tmp_path / "phi.txt"
    h.write_text("aa\nb\n", encoding="utf-8")
    k.write_text("a\nbb\n", encoding="utf-8")
    phi.write_text("ab\nb\n", encoding="utf-8")
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        argv = ["product", str(h), str(k), "--automorphism", str(phi)]
        assert cli.main(argv + ["--out", str(tmp_path / "p.json")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert metrics["automorphisms.is_automorphism.calls"] == 1
    assert metrics["automorphisms.act_on_subgroup.calls"] == 2


def test_benchmark_size_accounting_reads_live_attributes(tmp_path):
    """The benchmark stores any exception from `ops.sizes` as an `error`
    record, so a renamed graph or product attribute would drop every size
    record without failing a run.  One op of each kind, and the cover op
    that `ops.validate` checks, must account cleanly."""
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    ops = _load("perfbench_ops", PERFBENCH / "ops.py")
    chosen = {}
    for name in workloads.WORKLOADS:
        run_dir = tmp_path / name
        run_dir.mkdir()
        for op in workloads.build(name, 1, run_dir):
            chosen.setdefault(op.kind, op)
            if op.name == "current-v105-cover2-0":
                chosen["cover"] = op
    assert set(chosen) == {
        "shnc-scan", "product", "intersect", "converge", "routes", "core", "current", "cover",
    }
    for op in chosen.values():
        assert "error" not in ops.sizes(op, ops.run(op)), op.name
        ops.validate(op)


GRAPH_ATTRIBUTES = [
    "basepoint", "component_ids", "edges", "graph", "is_connected", "is_folded", "moves",
    "num_vertices", "rank",
]


def test_labeled_graph_attributes_pinned():
    h = from_generators([(1, 1), (2,)], Alphabet(2))
    assert sorted(name for name in dir(h) if not name.startswith("_")) == GRAPH_ATTRIBUTES


def test_graph_alias_and_repr():
    h = from_generators([(1, 1), (2,)], Alphabet(2))
    assert h.graph is h
    assert repr(counting_current(h)) == "RationalCurrent(1*LabeledGraph(V=2, E=3, rank=2))"


def test_sources_parse_as_python_3_10():
    """pyproject.toml promises Python 3.10, so no 3.11-only syntax."""
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_private_helpers_have_a_user_in_src():
    """Every module-level private function or class in the package is named
    somewhere in `src` outside its own definition, so a replaced helper
    cannot stay behind only for `tests/helpers.py` to import."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted((ROOT / "src" / "subsetcurrents").glob("*.py"))
    }
    private = {
        (path, node.name): node
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    assert private
    users: dict[str, set[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                users.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                users.setdefault(node.attr, set()).add(id(node))
    unused = []
    for (path, name), definition in private.items():
        own = {id(node) for node in ast.walk(definition)}
        if not users.get(name, set()) - own:
            unused.append(f"{path.name}:{name}")
    assert unused == []
