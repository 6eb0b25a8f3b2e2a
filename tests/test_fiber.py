"""Fiber products, component classification, intersection numbers."""

import random

from subsetcurrents import (
    Alphabet,
    check_core_graph,
    component_subgroup,
    contains,
    core,
    fiber_product,
    from_generators,
    intersection_number_cosets,
    intersection_number_euler,
    invert,
    parse_word,
    random_finite_index_cover,
    random_subgroup,
    reduced_rank,
    concat,
)

AL2 = Alphabet(2)


def sub(*words):
    return from_generators([parse_word(w, AL2) for w in words], AL2)


def ucore(h):
    return check_core_graph(core(h))


def test_product_size_oracle():
    # Delta(<a^2,b>) has 2 vertices (b-loop at base, two a-edges);
    # Delta(<a,b^2>) mirrors it.  Their product pairs two a-edges with the
    # a-loop and the b-loop with two b-edges: 4 vertices, 4 edges.
    h, k = sub("aa", "b"), sub("a", "bb")
    fp = fiber_product(h, k)
    assert fp.graph.num_vertices == 4
    assert len(fp.graph.edges) == 4
    comps = fp.components()
    assert len(comps) == 2
    eulers = sorted(c.euler for c in comps)
    assert eulers == [-1, 1]
    assert fp.contractible_count() == 1


def test_intersection_number_oracle():
    h, k = sub("aa", "b"), sub("a", "bb")
    assert intersection_number_euler(ucore(h), ucore(k)) == 1
    assert intersection_number_cosets(h, k) == 1


def test_disjoint_cyclics():
    assert intersection_number_euler(ucore(sub("a")), ucore(sub("b"))) == 0
    assert intersection_number_cosets(sub("a"), sub("b")) == 0


def test_alternating_word_misses_squares():
    # every nontrivial element of <ab> alternates letters, so all its
    # conjugates meet <a^2,b^2> trivially
    h, k = sub("aa", "bb"), sub("ab")
    assert intersection_number_euler(ucore(h), ucore(k)) == 0
    assert intersection_number_cosets(h, k) == 0


def test_whole_group_factor():
    f2 = sub("a", "b")
    for words in (["aa", "b"], ["ab"], ["aba", "bb"]):
        h = sub(*words)
        n = intersection_number_euler(ucore(f2), ucore(h))
        assert n == reduced_rank(h)
        assert intersection_number_cosets(f2, h) == n


def test_loop_with_tail_family():
    # <a^n b> against <a>: the product is a single a-labeled path, so the
    # intersection number vanishes for every n
    a = sub("a")
    for n in range(1, 6):
        h = sub("a" * n + "b")
        assert intersection_number_euler(ucore(h), ucore(a)) == 0
        assert intersection_number_cosets(h, a) == 0


def test_self_intersection_is_reduced_rank():
    # the diagonal component of Delta_H x Delta_H is Delta_H itself and
    # every other component obeys the bound, so N(H,H) >= rk(H)
    for words in (["aa", "b"], ["ab", "ba"], ["aab", "aba"]):
        h = sub(*words)
        n = intersection_number_euler(ucore(h), ucore(h))
        assert n >= reduced_rank(h)
        assert n <= reduced_rank(h) ** 2


def test_component_subgroup_postconditions():
    h, k = sub("aa", "b"), sub("a", "bb")
    fp = fiber_product(h, k)
    seen_nontrivial = False
    for comp in fp.components():
        g, gens = component_subgroup(fp, comp, h, k)
        g_inv = invert(g)
        for w in gens:
            assert contains(h, w)
            assert contains(k, concat(g_inv, w, g))
        if gens:
            seen_nontrivial = True
            inter = from_generators(gens, AL2)
            assert reduced_rank(inter) == comp.num_edges - comp.num_vertices
    assert seen_nontrivial


def test_component_subgroup_identity_coset():
    # base component of the self product carries H itself at g = 1
    h = sub("aa", "b")
    fp = fiber_product(h, h)
    diag = next(
        c
        for c in fp.components()
        if fp.vertex_pair(c.base_vertex)[0] == fp.vertex_pair(c.base_vertex)[1]
        and c.base_vertex == fp.pair_vertex(0, 0)
    )
    g, gens = component_subgroup(fp, diag, h, h)
    assert g == ()
    inter = from_generators(gens, AL2)
    assert reduced_rank(inter) == reduced_rank(h)


def test_covering_scales_intersection():
    rng = random.Random(23)
    h, k = sub("aa", "b"), sub("a", "bb")
    base = intersection_number_euler(ucore(h), ucore(k))
    for d in (2, 3):
        hc = random_finite_index_cover(h, d, rng)
        assert intersection_number_euler(ucore(hc), ucore(k)) == d * base


def test_euler_bookkeeping_consistent():
    rng = random.Random(40)
    for _ in range(10):
        h = random_subgroup(rng, AL2)
        k = random_subgroup(rng, AL2)
        fp = fiber_product(h, k)
        comps = fp.components()
        assert sum(c.num_vertices for c in comps) == fp.graph.num_vertices
        assert sum(c.num_edges for c in comps) == len(fp.graph.edges)
        assert sum(
            c.num_vertices - c.num_edges for c in comps
        ) == fp.graph.num_vertices - len(fp.graph.edges)
