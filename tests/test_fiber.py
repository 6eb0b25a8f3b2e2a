"""Fiber products, component classification, intersection numbers."""

import itertools
import random
import time
import tracemalloc

import pytest

from subsetcurrents import (
    Alphabet,
    LabeledGraph,
    SizeLimitError,
    c_hat,
    check_core_graph,
    classify_components,
    component_subgroup,
    contains,
    core,
    fiber_product,
    from_generators,
    intersection_number_cosets,
    intersection_number_euler,
    invert,
    parse_word,
    pushforward_I,
    random_finite_index_cover,
    random_reduced_word,
    random_subgroup,
    reduced_rank,
    concat,
    counting_current,
)
from subsetcurrents import fiber
from subsetcurrents.stallings import UnionFind, _tree_path, induced_subgraph
from helpers import (
    assert_tree_matches_oracle,
    classify_components_oracle,
    component_ids_oracle,
    component_subgroup_oracle,
    departures,
    all_cores,
    intersection_number_euler_full_oracle,
    intersection_number_euler_oracle,
    intersection_number_euler_sparse_oracle,
    intersection_number_euler_table_oracle,
    representative_oracle,
    spanning_tree_oracle,
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
    assert sum(c.contractible for c in comps) == 1


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
        g, gens = component_subgroup(fp, comp)
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
        and c.base_vertex == 0
    )
    g, gens = component_subgroup(fp, diag)
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


def differential_pairs():
    """About 300 seeded (h, k) pairs: random at ranks 2 and 3, pairs sharing
    a generator cycle, finite-index covers against their base, and
    self-products."""
    rng = random.Random(66)
    pairs = []
    for rank in (2, 3):
        al = Alphabet(rank)
        for _ in range(60):
            pairs.append((random_subgroup(rng, al), random_subgroup(rng, al)))
        for _ in range(30):
            shared = random_reduced_word(rng, al, rng.randint(3, 8))
            pairs.append(
                tuple(
                    from_generators(
                        [shared, random_reduced_word(rng, al, rng.randint(1, 5))], al
                    )
                    for _ in range(2)
                )
            )
        for _ in range(30):
            h = random_subgroup(rng, al)
            pairs.append((random_finite_index_cover(h, rng.randint(2, 3), rng), h))
        for _ in range(30):
            h = random_subgroup(rng, al)
            pairs.append((h, h))
    return pairs


def test_component_subgroup_matches_oracle():
    pairs = differential_pairs()
    assert len(pairs) == 300
    with_essential = 0
    for h, k in pairs:
        fp = fiber_product(h, k)
        comps = fp.components()
        for comp in comps:
            assert component_subgroup(fp, comp) == component_subgroup_oracle(
                fp, comp, h, k
            )
        with_essential += any(not c.contractible for c in comps)
    assert with_essential >= 50


def test_representatives_match_the_two_path_oracle():
    """The walk up both parent tables gives the g that reading both full
    tree paths and dropping their common suffix gives, on every component:
    seeded products, conjugates <a^n b a^-n> against <bab>, where the two
    paths share long suffixes, and finite covers against their base."""
    rng = random.Random(29)
    pairs = differential_pairs()
    bab = from_generators([(2, 1, 2)], AL2)
    pairs += [
        (from_generators([(1,) * n + (2,) + (-1,) * n], AL2), bab) for n in (1, 2, 5, 13, 40)
    ]
    for _ in range(10):
        h = random_subgroup(rng, AL2)
        pairs.append((random_finite_index_cover(h, rng.randint(2, 4), rng), h))
    checked = nontrivial = 0
    for h, k in pairs:
        fp = fiber_product(h, k)
        for comp in fp.components():
            g, _ = component_subgroup(fp, comp)
            assert g == representative_oracle(fp, comp)
            checked += 1
            nontrivial += len(g) > 2
    assert checked >= 5000
    assert nontrivial >= 3000


def test_product_trees_match_oracle():
    """The trees behind `component_subgroup`: each factor's cached parent
    table, read at every factor vertex, and the parent table of every
    essential component."""
    essential = 0
    for h, k in differential_pairs():
        fp = fiber_product(h, k)
        component_subgroup(fp, fp.components()[0])  # caches both parent tables
        for g, parent in zip((h, k), fp._trees):
            assert {
                v: _tree_path(parent, v) for v in range(g.num_vertices)
            } == spanning_tree_oracle(g, g.basepoint)[0]
        for comp in fp.components():
            if not comp.contractible:
                assert_tree_matches_oracle(fp._component_graph(comp), 0)
                essential += 1
    assert essential >= 100


def euler_pairs():
    """300 seeded (h, k) pairs at ranks 2 and 3: random pairs, pairs whose
    generators are conjugated by a random word (so based graphs carry a
    basepoint arc), finite-index covers against their base, and
    self-products."""
    rng = random.Random(67)
    pairs = []
    for rank in (2, 3):
        al = Alphabet(rank)

        def conjugated():
            w = random_reduced_word(rng, al, rng.randint(1, 4))
            return from_generators(
                [
                    concat(w, random_reduced_word(rng, al, rng.randint(1, 5)), invert(w))
                    for _ in range(rng.randint(1, 3))
                ],
                al,
            )

        for _ in range(50):
            pairs.append((random_subgroup(rng, al), random_subgroup(rng, al)))
        for _ in range(50):
            pairs.append((conjugated(), rng.choice([conjugated, lambda: random_subgroup(rng, al)])()))
        for _ in range(25):
            h = conjugated()
            pairs.append((random_finite_index_cover(h, rng.randint(2, 3), rng), h))
        for _ in range(25):
            h = conjugated()
            pairs.append((h, h))
    return pairs


def euler_edge_pairs():
    """Products with no edge, products that are forests of trees and
    isolated pairs, self-loop roses, and based factors with long tails."""
    al3 = Alphabet(3)
    rose2 = sub("a", "b")
    rose3 = from_generators([(1,), (2,), (3,)], al3)
    forests = [
        (sub("a"), sub("b")),
        (from_generators([(1,)], al3), from_generators([(3,)], al3)),
        (sub("a"), sub("ab")),
        (sub("aa"), sub("ab")),
        (sub("aab"), sub("abb")),
    ]
    roses = [
        (rose2, rose2),
        (rose2, sub("aa", "b")),
        (rose2, sub("abAB")),
        (rose3, rose3),
        (rose3, from_generators([(1, 2), (3, 3, -1)], al3)),
    ]
    rng = random.Random(68)
    tails = []
    for rank in (2, 3):
        al = Alphabet(rank)
        while len(tails) < 10 * (rank - 1):
            w = random_reduced_word(rng, al, rng.randint(20, 40))
            gens = [random_reduced_word(rng, al, rng.randint(1, 5)) for _ in range(2)]
            h = from_generators([concat(w, g, invert(w)) for g in gens], al)
            if h.num_vertices - ucore(h).num_vertices < 20:
                continue  # w cancelled into the generators, or they span F_N
            k = rng.choice([h, rose3 if rank == 3 else rose2, random_subgroup(rng, al)])
            tails.append((h, k))
    return forests, roses, tails


def parallel_pairs():
    """Products with loops and parallel edges: two vertices joined by both
    an a-edge and a b-edge (and, at rank 3, a c-loop at one of them),
    against themselves, each other's rank and the rose."""
    theta = LabeledGraph(2, 2, [(0, 1, 1), (0, 1, 2)], basepoint=0)
    theta3 = LabeledGraph(3, 2, [(0, 1, 1), (0, 1, 2), (1, 1, 3)], basepoint=0)
    rose2 = sub("a", "b")
    rose3 = from_generators([(1,), (2,), (3,)], Alphabet(3))
    return [(theta, theta), (theta, rose2), (rose2, theta), (theta, sub("ab", "bA")),
            (theta3, theta3), (theta3, rose3), (rose3, theta3)]


def euler_both_forms(monkeypatch, h, k) -> list[int]:
    """The Euler route with its tables forced to dicts, then to lists.  A
    product with no edge takes dicts either way."""
    values = []
    for ratio in (0, 2**62):
        with monkeypatch.context() as m:
            m.setattr(fiber, "_DENSE_PAIRS_PER_EDGE", ratio)
            values.append(intersection_number_euler(h, k))
    return values


def is_dense(h, k) -> bool:
    """Whether the Euler route keeps its tables as lists over all pairs."""
    return h.num_vertices * k.num_vertices <= fiber._DENSE_PAIRS_PER_EDGE * fiber._join(h, k)[1]


def test_euler_by_pruning_matches_oracle(monkeypatch):
    pairs = euler_pairs()
    assert len(pairs) == 300
    forests, roses, tails = euler_edge_pairs()
    for h, k in forests:
        assert all(c.contractible for c in fiber_product(h, k).components())
    assert not fiber_product(*forests[0]).graph.edges
    assert all(h.num_vertices - ucore(h).num_vertices >= 20 for h, _ in tails)
    parallel = parallel_pairs()
    loops = doubled = 0
    for h, k in parallel:
        edges = fiber_product(h, k).graph.edges
        loops += any(o == t for o, t, _ in edges)
        doubled += len({(o, t) for o, t, _ in edges}) < len(edges)
    assert doubled == len(parallel) and loops >= 3
    positive = with_tail = 0
    forms = set()
    for h, k in pairs + forests + roses + tails + parallel:
        expected = intersection_number_euler_oracle(ucore(h), ucore(k))
        assert intersection_number_euler_full_oracle(h, k) == expected
        assert intersection_number_euler_sparse_oracle(h, k) == expected
        for left, right in ((h, k), (ucore(h), ucore(k))):
            assert intersection_number_euler_table_oracle(left, right) == expected
            assert intersection_number_euler(left, right) == expected
            assert euler_both_forms(monkeypatch, left, right) == [expected, expected]
            forms.add(is_dense(left, right))
        positive += expected > 0
        with_tail += len(departures(h)[h.basepoint]) == 1
    assert positive >= 50
    assert with_tail >= 120
    assert forms == {False, True}  # the default choice takes both forms here
    for rose, k in roses:  # the product with the rose is a copy of k
        assert intersection_number_euler(rose, k) == intersection_number_euler(k, rose)
        assert intersection_number_euler(rose, k) == reduced_rank(k)


def test_euler_by_pruning_on_every_pair_of_small_cores(monkeypatch):
    """Acceptance 20's pairs: every pair of rank-2 cores on at most 3
    vertices, a core with itself included, against all four oracles and
    with the tables forced to each form."""
    cores = all_cores(2, 3)
    positive = 0
    for h, k in itertools.combinations_with_replacement(cores, 2):
        expected = intersection_number_euler_oracle(h, k)
        assert intersection_number_euler_full_oracle(h, k) == expected
        assert intersection_number_euler_sparse_oracle(h, k) == expected
        assert intersection_number_euler_table_oracle(h, k) == expected
        assert intersection_number_euler(h, k) == expected
        assert euler_both_forms(monkeypatch, h, k) == [expected, expected]
        positive += expected > 0
    assert positive > 0


def test_euler_tables_by_the_size_rule():
    """The tables are lists exactly when V1 * V2 <= 4 * E, a rule read off
    the sizes alone.  The sparse pair of acceptance 22, <a^5000 b> x
    <b^5000 a> (25,010,001 pairs, 10,000 edges), takes dicts; the
    self-product of <ab, bA> (4 pairs, 5 edges) takes lists."""
    assert fiber._DENSE_PAIRS_PER_EDGE == 4
    n = 5000
    h = from_generators([(1,) * n + (2,)], AL2)
    k = from_generators([(2,) * n + (1,)], AL2)
    assert fiber._join(h, k)[1] == 2 * n and not is_dense(h, k)
    assert intersection_number_euler(h, k) == 0
    square = sub("ab", "bA")
    assert is_dense(square, square)
    assert intersection_number_euler(square, square) == reduced_rank(square)


def test_euler_refuses_what_the_product_refuses():
    """Both product walks enter through `_join`, which refuses two ranks
    before it asks whether the factors are folded: a pair that is both of
    two ranks and unfolded is refused for its ranks."""
    al3 = Alphabet(3)
    h2, h3 = sub("aa", "b"), from_generators([(1, 1), (2,)], al3)
    unfolded = LabeledGraph(2, 1, [(0, 0, 1), (0, 0, 1)])
    unfolded3 = LabeledGraph(3, 1, [(0, 0, 3), (0, 0, 3)])
    for walk in (intersection_number_euler, fiber_product):
        for left, right in ((h2, h3), (h3, h2), (h2, unfolded3), (unfolded3, h2)):
            with pytest.raises(ValueError, match="fiber product needs a common ambient rank"):
                walk(left, right)
        for left, right in ((h2, unfolded), (unfolded, h2)):
            with pytest.raises(ValueError, match="fiber product factors must be folded"):
                walk(left, right)


def test_product_walks_refuse_above_the_edge_budget(monkeypatch):
    """Every product walk enters through `_join`, which refuses a product
    of more than `MAX_PRODUCT_EDGES` edges with `SizeLimitError`, after
    its rank and folding refusals and before the walk allocates anything
    of the product's size; a product at the budget is walked.
    <a^2, b> x <a, b^2> has 2 x 2 pairs and 4 edges."""
    h, k = sub("aa", "b"), sub("a", "bb")
    mu, nu = counting_current(h), counting_current(k)
    walks = {
        "euler": lambda: intersection_number_euler(h, k),
        "c_hat": lambda: c_hat(mu, nu),
        "fiber_product": lambda: fiber_product(h, k),
        "pushforward_I": lambda: pushforward_I(mu, nu),
    }
    monkeypatch.setattr(fiber, "MAX_PRODUCT_EDGES", 4)
    assert intersection_number_euler(h, k) == 1 and c_hat(mu, nu) == 1
    assert len(fiber_product(h, k).graph.edges) == 4
    assert pushforward_I(mu, nu).terms()
    monkeypatch.setattr(fiber, "MAX_PRODUCT_EDGES", 3)
    for name, walk in walks.items():
        with pytest.raises(
            SizeLimitError,
            match="a fiber product of 2 x 2 vertices has 4 edges, above the budget of 3",
        ):
            walk()
    unfolded = LabeledGraph(2, 1, [(0, 0, 1), (0, 0, 1)])
    with pytest.raises(ValueError, match="must be folded"):
        intersection_number_euler(h, unfolded)
    with pytest.raises(ValueError, match="common ambient rank"):
        intersection_number_euler(h, from_generators([(3,)], Alphabet(3)))


def test_product_edge_budget_refuses_a_product_too_big_to_hold():
    """At the real budget, <a^3000 b> with itself has 9,000,001 product
    edges, above 2^23: every walk refuses it within a fraction of a
    second, holding no more than the factors' own tables."""
    assert fiber.MAX_PRODUCT_EDGES == 2**23
    h = from_generators([(1,) * 3000 + (2,)], AL2)
    mu = counting_current(h)
    h.moves()
    for walk in (
        lambda: intersection_number_euler(h, h),
        lambda: c_hat(mu, mu),
        lambda: fiber_product(h, h),
        lambda: pushforward_I(mu, mu),
    ):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(SizeLimitError, match="3001 x 3001 vertices has 9000001 edges"):
                walk()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 2**20


@pytest.mark.parametrize("walk", ["c_hat", "fiber_product", "pushforward_I", "cosets"])
def test_per_pair_walks_refuse_above_the_pair_budget(monkeypatch, walk):
    """The walks that hold every vertex pair list their edges through
    `_product_edges`, which refuses V1 * V2 above `MAX_PRODUCT_PAIRS`
    with `SizeLimitError`, naming V1, V2, the pairs and the bound.  The
    Euler route holds only the pairs its tables need and is not bound.
    <a^2, b> x <a, b^2> has 2 x 2 pairs and 4 edges."""
    h, k = sub("aa", "b"), sub("a", "bb")
    mu, nu = counting_current(h), counting_current(k)
    run = {
        "c_hat": lambda: c_hat(mu, nu),
        "fiber_product": lambda: fiber_product(h, k).components(),
        "pushforward_I": lambda: pushforward_I(mu, nu),
        "cosets": lambda: intersection_number_cosets(h, k),
    }[walk]
    monkeypatch.setattr(fiber, "MAX_PRODUCT_PAIRS", 4)
    assert run()
    monkeypatch.setattr(fiber, "MAX_PRODUCT_PAIRS", 3)
    with pytest.raises(
        SizeLimitError,
        match="a fiber product of 2 x 2 vertices has 4 vertex pairs, above the budget of 3",
    ):
        run()
    assert intersection_number_euler(h, k) == 1


def test_pair_budget_admits_a_sparse_product_of_nine_million_pairs():
    """At the real budget, 2^24, <a^3000 b> x <b^3000 a> (9,006,001
    pairs, 6,000 edges) is admitted: its edges are listed."""
    assert fiber.MAX_PRODUCT_PAIRS == 2**24
    h = from_generators([(1,) * 3000 + (2,)], AL2)
    k = from_generators([(2,) * 3000 + (1,)], AL2)
    assert h.num_vertices * k.num_vertices == 9_006_001
    assert len(fiber._product_edges(h, k)) == 6000


def classify_pairs():
    """Seeded based pairs at ranks 2 to 4 and finite-index covers against
    their base, plus edgeless products, forests and self-loop roses."""
    rng = random.Random(69)
    pairs = []
    for rank in (2, 3, 4):
        al = Alphabet(rank)
        for _ in range(30):
            pairs.append((random_subgroup(rng, al), random_subgroup(rng, al)))
        for _ in range(10):
            h = random_subgroup(rng, al)
            pairs.append((random_finite_index_cover(h, rng.randint(2, 3), rng), h))
    forests, roses, _ = euler_edge_pairs()
    return pairs + forests + roses


def test_classify_components_matches_oracle():
    isolated = loop_only = essential = 0
    for h, k in classify_pairs():
        fp = fiber_product(h, k)
        expected = classify_components_oracle(fp)
        got = classify_components(fp)
        assert [
            (c.base_vertex, c.num_vertices, c.num_edges, c.euler, c.contractible)
            for c in got
        ] == [
            (c.base_vertex, len(c.vertices), c.num_edges, c.euler, c.contractible)
            for c in expected
        ]
        for comp, oracle in zip(got, expected):
            sub = fp._component_graph(comp)
            want, _ = induced_subgraph(fp.graph, oracle.vertices, oracle.base_vertex)
            assert (sub.num_vertices, sub.edges, sub.basepoint) == (
                want.num_vertices, want.edges, want.basepoint
            )
            isolated += comp.num_vertices == 1 and comp.num_edges == 0
            loop_only += comp.num_vertices == 1 and comp.num_edges > 0
            essential += not comp.contractible
    assert isolated >= 1000
    assert loop_only >= 5
    assert essential >= 75


def _shuffled_multigraphs():
    """Seeded multigraphs with loops and parallel edges, edges in shuffled
    order, over vertices 0..n-1 with isolated ones left in."""
    rng = random.Random(83)
    for _ in range(200):
        n = rng.randint(1, 30)
        edges = [
            (rng.randrange(n), rng.randrange(n), rng.randint(1, 3))
            for _ in range(rng.randint(0, 2 * n))
        ]
        rng.shuffle(edges)
        yield n, edges


def test_union_find_roots_match_bfs_labels_in_every_union_order():
    # every order of every edge orientation on small graphs, then the
    # shuffled seeded multigraphs, with finds interleaved in some of them
    small = [
        (4, [(0, 1), (1, 2), (2, 3)]),
        (5, [(3, 0), (3, 1), (3, 4)]),
        (6, [(5, 2), (2, 4), (4, 5), (1, 3)]),
    ]
    cases = [
        (n, [(t, o) if flip >> i & 1 else (o, t) for i, (o, t) in enumerate(order)])
        for n, edges in small
        for order in itertools.permutations(edges)
        for flip in range(2 ** len(edges))
    ]
    cases += [(n, [(o, t) for o, t, _ in edges]) for n, edges in _shuffled_multigraphs()]
    for i, (n, edges) in enumerate(cases):
        uf = UnionFind(n)
        for o, t in edges:
            uf.union(o, t)
            if i % 2:
                uf.find(t)
        assert all(p <= v for v, p in enumerate(uf.parent))
        assert tuple(uf.roots()) == component_ids_oracle(n, edges)


def test_component_ids_match_bfs_labels():
    for n, edges in _shuffled_multigraphs():
        g = LabeledGraph(3, n, edges)
        assert g.component_ids() == component_ids_oracle(n, edges)
        assert g.is_connected() == (set(component_ids_oracle(n, edges)) == {0})
    # a graph with no vertex has no component; a second component has a
    # nonzero id
    assert not LabeledGraph(3, 0, []).is_connected()
    assert LabeledGraph(3, 1, []).is_connected()
    two = LabeledGraph(3, 4, [(0, 1, 1), (3, 2, 2)])
    assert two.component_ids() == (0, 0, 2, 2) and not two.is_connected()
    assert not LabeledGraph(3, 2, []).is_connected()
    for h, k in classify_pairs():
        product = fiber_product(h, k).graph
        want = component_ids_oracle(product.num_vertices, product.edges)
        assert product.component_ids() == want


def test_classify_components_keeps_no_vertex_lists():
    # The 8x30 pair of acceptance criterion 13.  Its 20,384 reports keep
    # 1.25 MiB under Python 3.11; a vertex list per component kept 5.25 MiB.
    rng = random.Random(5)
    h, k = (
        from_generators([random_reduced_word(rng, AL2, 30) for _ in range(8)], AL2)
        for _ in range(2)
    )
    fp = fiber_product(h, k)
    fp.graph.component_ids()
    tracemalloc.start()
    try:
        reports = classify_components(fp)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 20384
    assert retained < 2.5 * 2**20


def test_cosets_route_budget(acceptance):
    # With a path word per factor vertex these took 3.7 s and 2.2 s on a
    # shared 2-vCPU host, peaking near 1 GiB.
    n = 16000
    h = from_generators([(1,) * n + (2,) + (-1,) * n, (2, 1, 2)], AL2)
    k = from_generators([(2, 2), (1, 2, -1), (1, 1)], AL2)
    label = "cosets route and component_subgroup on <a^16000 b a^-16000, bab> within 1 s each"
    with acceptance(18, label):
        start = time.perf_counter()
        value = intersection_number_cosets(h, k)
        elapsed = time.perf_counter() - start
        assert value == 1
        assert elapsed < 1.0, f"cosets route: {elapsed:.2f} s"
        start = time.perf_counter()
        fp = fiber_product(h, k)
        subgroups = [component_subgroup(fp, c) for c in fp.components() if not c.contractible]
        elapsed = time.perf_counter() - start
        assert [len(gens) for _, gens in subgroups] == [1, 2]
        assert elapsed < 1.0, f"component_subgroup: {elapsed:.2f} s"
