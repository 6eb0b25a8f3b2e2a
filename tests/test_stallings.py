"""Core graphs: folding, membership, index, commensurators, covers.

Expected vertex/edge counts were folded by hand before the assertions
were written; the comments sketch the foldings.
"""

import random

import pytest

from subsetcurrents import (
    Alphabet,
    EmptyCoreError,
    LabeledGraph,
    NotConnectedError,
    NotSubgroupError,
    TrivialSubgroupError,
    WordFormatError,
    canonical_key,
    canonical_key_based,
    check_core_graph,
    commensurator,
    contains,
    core,
    finite_index,
    fold,
    from_generators,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    minimal_covering_quotient,
    parse_subgroup_file,
    parse_word,
    random_finite_index_cover,
    random_reduced_word,
    random_subgroup,
    rank,
    reduced_rank,
    subgroup_generators,
)

from helpers import covering_quotient_oracle, fold_oracle, wedge

AL2 = Alphabet(2)
AL3 = Alphabet(3)


def gens(*words, alphabet=AL2):
    return [parse_word(w, alphabet) for w in words]


def sub(*words, alphabet=AL2):
    return from_generators(gens(*words, alphabet=alphabet), alphabet)


def test_fold_oracle_squares():
    # a^2 wedge b: the two a-edges stay distinct, b folds onto the base.
    h = sub("aa", "b")
    assert h.graph.num_vertices == 2
    assert len(h.graph.edges) == 3
    assert rank(h) == 2
    assert reduced_rank(h) == 1


def test_fold_oracle_shared_prefix():
    # ab and aB share the a-edge after one fold: 2 vertices, 3 edges.
    h = sub("ab", "aB")
    assert h.graph.num_vertices == 2
    assert len(h.graph.edges) == 3
    assert rank(h) == 2


def test_fold_duplicate_generator():
    h = sub("a", "a")
    assert h.graph.num_vertices == 1
    assert len(h.graph.edges) == 1


def test_whole_group_is_rose():
    f2 = sub("a", "b")
    assert f2.graph.num_vertices == 1
    assert len(f2.graph.edges) == 2
    assert reduced_rank(f2) == 1


def test_trivial_subgroup_rejected():
    with pytest.raises(TrivialSubgroupError):
        from_generators([], AL2)
    with pytest.raises(TrivialSubgroupError):
        from_generators([()], AL2)


def test_core_of_forest_rejected():
    tree = LabeledGraph(2, 2, [(0, 1, 1)])
    with pytest.raises(EmptyCoreError):
        core(tree)


def test_membership_oracle():
    h = sub("aa", "b")
    assert contains(h, parse_word("aa", AL2))
    assert contains(h, parse_word("aabb", AL2))
    assert contains(h, parse_word("baab", AL2))
    assert not contains(h, parse_word("a", AL2))
    assert not contains(h, parse_word("abba", AL2))
    assert contains(h, parse_word("1", AL2))


def test_membership_conjugate():
    h = sub("aba")
    assert contains(h, parse_word("abaaba", AL2))
    assert not contains(h, parse_word("ab", AL2))


def test_subgroup_generators_regenerate():
    for words in (["aa", "b"], ["ab", "aB"], ["aba", "bb", "abab"]):
        h = sub(*words)
        again = from_generators(subgroup_generators(h), AL2)
        assert canonical_key_based(again) == canonical_key_based(h)


def test_canonical_key_relabeling_invariance():
    g1 = LabeledGraph(2, 2, [(0, 0, 2), (0, 1, 1), (1, 0, 1)])
    # same graph with the vertex names swapped
    g2 = LabeledGraph(2, 2, [(1, 1, 2), (1, 0, 1), (0, 1, 1)])
    assert canonical_key(g1) == canonical_key(g2)


def test_canonical_key_separates():
    a2b = core(from_generators(gens("aa", "b"), AL2).graph)
    ab2 = core(from_generators(gens("a", "bb"), AL2).graph)
    assert canonical_key(a2b) != canonical_key(ab2)


def test_finite_index_oracles():
    a = sub("a")
    a2 = sub("aa")
    a3 = sub("aaa")
    f2 = sub("a", "b")
    assert finite_index(a2, a) == 2
    assert finite_index(a3, a) == 3
    assert finite_index(a, a) == 1
    # index two in the whole group: even a-exponent-sum words
    assert finite_index(sub("aa", "b", "abA"), f2) == 2
    # infinite index cases
    assert finite_index(a, f2) is None
    assert finite_index(sub("aa", "bb"), f2) is None
    with pytest.raises(NotSubgroupError):
        finite_index(a, a2)
    with pytest.raises(NotSubgroupError):
        finite_index(sub("ab"), sub("aa", "b"))


def test_finite_index_with_conjugation_tail():
    # <ab^2A> sits at index two in <abA>: both cores are b-cycles hanging
    # off an a-edge, and the covering must be detected on the cores alone,
    # ignoring the germ of the tail at its attachment vertex.
    assert finite_index(sub("abbA"), sub("abA")) == 2
    with pytest.raises(NotSubgroupError):
        finite_index(sub("abA"), sub("abbA"))


def test_minimal_covering_quotient_cycle():
    # the (ab)^3 cycle covers the ab cycle with degree 3
    h = sub("ababab")
    quotient, degree, vmap = minimal_covering_quotient(core(h.graph))
    assert degree == 3
    assert quotient.num_vertices == 2
    assert len(quotient.edges) == 2
    assert len(vmap) == core(h.graph).num_vertices


def test_minimal_covering_quotient_already_minimal():
    h = sub("aa", "b")
    quotient, degree, _ = minimal_covering_quotient(core(h.graph))
    assert degree == 1
    assert canonical_key(quotient) == canonical_key(core(h.graph))


def test_commensurator_cyclic_powers():
    cases = (
        ("aa", 2, "a"),
        ("aaa", 3, "a"),
        ("abab", 2, "ab"),
        ("ababab", 3, "ab"),
    )
    for word, n, root in cases:
        comm, degree = commensurator(sub(word))
        assert degree == n
        assert canonical_key_based(comm) == canonical_key_based(sub(root))


def test_commensurator_conjugated_power():
    # b a^2 b^-1 has commensurator b<a>b^-1, reached through the tail
    comm, degree = commensurator(sub("baaB"))
    assert degree == 2
    assert canonical_key_based(comm) == canonical_key_based(sub("baB"))


def test_commensurator_self():
    for words in (["a", "babB"], ["aa", "b"], ["ab"], ["a", "b"]):
        comm, degree = commensurator(sub(*words))
        assert degree == 1
        assert canonical_key_based(comm) == canonical_key_based(sub(*words))


def test_commensurator_index_matches_finite_index():
    for words in (["aa"], ["ababab"], ["baaB"], ["aa", "b"]):
        h = sub(*words)
        comm, degree = commensurator(h)
        assert finite_index(h, comm) == degree


def test_random_cover_properties():
    rng = random.Random(7)
    base = sub("aa", "b")
    for degree in (2, 3, 4):
        cover = random_finite_index_cover(base, degree, rng)
        assert finite_index(cover, base) == degree
        assert reduced_rank(cover) == degree * reduced_rank(base)


def test_random_cover_of_loop_is_power():
    rng = random.Random(1)
    cover = random_finite_index_cover(sub("a"), 3, rng)
    assert canonical_key_based(cover) == canonical_key_based(sub("aaa"))


def test_random_subgroup_deterministic():
    a1 = random_subgroup(random.Random(5), AL2)
    a2 = random_subgroup(random.Random(5), AL2)
    assert canonical_key_based(a1) == canonical_key_based(a2)


def test_random_reduced_word_is_reduced():
    rng = random.Random(3)
    for _ in range(50):
        w = random_reduced_word(rng, AL3, 8)
        assert len(w) == 8
        assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def test_fold_idempotent_on_random_wedges():
    rng = random.Random(11)
    for _ in range(20):
        h = random_subgroup(rng, AL2)
        folded_again = fold(h.graph)
        assert folded_again.num_vertices == h.graph.num_vertices
        assert len(folded_again.edges) == len(h.graph.edges)


def test_core_graph_wrappers_validate():
    with pytest.raises(ValueError):
        check_core_graph(LabeledGraph(2, 2, [(0, 1, 1)]))  # degree-one vertices
    based = from_generators(gens("aa", "b"), AL2)
    assert isinstance(based, LabeledGraph)
    assert based.basepoint == 0


@pytest.mark.parametrize(
    "graph, error",
    [
        (LabeledGraph(2, 1, []), EmptyCoreError),
        (LabeledGraph(2, 1, [(0, 0, 1), (0, 0, 1)]), ValueError),  # two a-loops
        (LabeledGraph(2, 2, [(0, 0, 1), (1, 1, 2)], basepoint=0), NotConnectedError),
        (LabeledGraph(2, 2, [(0, 0, 1), (0, 1, 2)], basepoint=0), ValueError),  # vertex 1
        (LabeledGraph(2, 2, [(0, 1, 2), (1, 1, 1)], basepoint=0), None),  # degree-1 base
        (LabeledGraph(2, 2, [(0, 0, 1), (1, 1, 2)]), None),  # disconnected, unbased
    ],
    ids=["empty", "unfolded", "based-disconnected", "degree-one", "degree-one-base",
         "unbased-disconnected"],
)
def test_check_core_graph(graph, error):
    if error is None:
        assert check_core_graph(graph) is graph
    else:
        with pytest.raises(error) as info:
            check_core_graph(graph)
        assert type(info.value) is error


def test_json_roundtrip():
    h = sub("aba", "bb")
    data = graph_to_json_dict(h)
    back = graph_from_json_dict(data)
    assert canonical_key_based(
        check_core_graph(back)
    ) == canonical_key_based(h)


GOOD_JSON = {"rank": 2, "vertices": [0, 1], "edges": [[0, 1, 1], [1, 0, 2]], "basepoint": 0}


@pytest.mark.parametrize(
    "key, value",
    [
        ("edges", [[0, 1.0, 1], [1, 0, 2]]),
        ("rank", 2.5),
        ("basepoint", 0.0),
        ("edges", [[0, 1, True], [1, 0, 2]]),
        ("vertices", [0, 1.0]),
        ("edges", [[0, 1, 1, 1], [1, 0, 2]]),
    ],
    ids=["float-edge-entry", "float-rank", "float-basepoint", "bool-label", "float-vertex",
         "four-entry-edge"],
)
def test_graph_from_json_dict_rejects_non_integers(key, value):
    assert graph_from_json_dict(GOOD_JSON).edges == ((0, 1, 1), (1, 0, 2))
    with pytest.raises(ValueError):
        graph_from_json_dict({**GOOD_JSON, key: value})


def test_dot_export_mentions_basepoint():
    h = sub("aa", "b")
    dot = graph_to_dot(h)
    assert "doublecircle" in dot
    assert dot.startswith("digraph")


def test_parse_subgroup_file():
    text = "# subgroup\naa\n\nb  # inline comment\n"
    assert parse_subgroup_file(text, AL2) == [(1, 1), (2,)]
    with pytest.raises(WordFormatError) as err:
        parse_subgroup_file("aa\nzz\n", AL2)
    assert "line 2" in str(err.value)


def test_rank3_folding():
    h = sub("ac", "bc", alphabet=AL3)
    assert rank(h) == 2
    assert contains(h, parse_word("aB", AL3))
    assert not contains(h, parse_word("c", AL3))


def _same_graph(g1, g2):
    assert g1.num_vertices == g2.num_vertices
    assert g1.edges == g2.edges
    assert g1.basepoint == g2.basepoint


def _same_fold(graph):
    folded = fold(graph)
    _same_graph(folded, fold_oracle(graph))
    return folded


def _same_quotient(graph):
    quotient, degree, vmap = minimal_covering_quotient(graph)
    old_quotient, old_degree, old_vmap = covering_quotient_oracle(graph)
    _same_graph(quotient, old_quotient)
    assert degree == old_degree
    assert vmap == old_vmap
    return degree


def test_fold_and_quotient_match_oracles_on_random_wedges():
    # Words are not reduced, single letters and repeated generators occur,
    # so the wedges carry backtracks, self-loops and parallel edges.
    rng = random.Random(20)
    nontrivial = 0
    for i in range(600):
        al = Alphabet(2 + i % 3)
        letters = al.signed_letters()
        words = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if words and roll < 0.2:
                words.append(rng.choice(words))
            elif roll < 0.4:
                words.append((rng.choice(letters),))
            else:
                words.append(tuple(rng.choice(letters) for _ in range(rng.randint(2, 8))))
        folded = _same_fold(wedge(words, al.rank))
        try:
            cored = core(folded)
        except EmptyCoreError:
            continue
        if _same_quotient(cored) > 1:
            nontrivial += 1
    assert nontrivial >= 10


def test_fold_and_quotient_match_oracles_on_cores_and_covers():
    rng = random.Random(21)
    for i in range(300):
        al = Alphabet(2 + i % 2)
        h = random_subgroup(rng, al)
        degree = rng.randint(2, 4)
        cover = random_finite_index_cover(h, degree, rng)
        _same_quotient(core(h.graph))
        assert _same_quotient(core(cover.graph)) % degree == 0
        _same_fold(wedge(subgroup_generators(cover), al.rank))


def test_fold_long_word_is_near_linear(acceptance):
    # a^n b a^-n folds to an a-path of length n with a b-loop at its end;
    # folding that was quadratic took about 2 s at n = 1000.
    n = 5000
    word = (1,) * n + (2,) + (-1,) * n
    with acceptance(11, "a^5000 b a^-5000 folds within its budget", budget=2.0):
        h = from_generators([word], AL2)
    assert h.graph.num_vertices == n + 1
    assert len(h.graph.edges) == n + 1
