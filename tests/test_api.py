"""The public API, and the package functions the benchmark tracer wraps.

A rename or removal here is an API change: it must show up as a failing
test, not as a crash of `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import subsetcurrents
from subsetcurrents import Alphabet, counting_current, from_generators

PUBLIC = [
    "Alphabet", "ComponentReport", "EmptyCoreError", "Endomorphism", "FiberProduct",
    "FiniteSubtree", "IDENTITY", "LabeledGraph", "MismatchBugError",
    "NotAutomorphismError", "NotConnectedError", "NotSubgroupError", "RationalCurrent",
    "RetryLimitError", "SizeLimitError", "TrivialSubgroupError", "Word", "WordFormatError",
    "act_on_current", "act_on_subgroup", "apply_word", "c_hat", "c_hat_via_round_graphs",
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
    "subgroup_generators", "tree_intersection", "zero_current",
]

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_public_names_pinned():
    names = subsetcurrents.__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == PUBLIC
    for name in names:
        getattr(subsetcurrents, name)


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.LAYERS.items():
        mod = importlib.import_module(f"subsetcurrents.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_graph_alias_and_repr():
    h = from_generators([(1, 1), (2,)], Alphabet(2))
    assert h.graph is h
    assert repr(counting_current(h)) == "RationalCurrent(1*LabeledGraph(V=2, E=3, rank=2))"
