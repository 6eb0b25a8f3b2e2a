"""Currents: subtrees, round graphs, cylinder counts, the functionals.

Round-graph totals were computed by hand from the branching count before
being frozen here: at rank 2 a grade-1 round graph is a subset of the four
letters of size >= 2 (11 of them), and grade 2 gives 8^4 - 1 - 4*7 = 4067;
at rank 3, 2^6 - 1 - 6 = 57.
"""

import random
from fractions import Fraction

import pytest

from subsetcurrents import (
    Alphabet,
    FiniteSubtree,
    MismatchBugError,
    SizeLimitError,
    c_hat,
    c_hat_via_round_graphs,
    check_core_graph,
    check_round_graph,
    core,
    count_round_graphs,
    counting_current,
    enumerate_round_graphs,
    eval_cylinder,
    from_generators,
    functional_E,
    functional_rk,
    functional_V,
    intersection_functional_N,
    neighborhood_profile,
    neighborhood_tree,
    normalize,
    occurrence_count,
    parse_word,
    pushforward_I,
    random_finite_index_cover,
    random_subgroup,
    tree_intersection,
    zero_current,
)
from helpers import (
    brute_force_occurrences,
    functional_V_oracle,
    random_current,
    random_tree_words,
)

AL2 = Alphabet(2)
AL3 = Alphabet(3)


def sub(*words, alphabet=AL2):
    return from_generators([parse_word(w, alphabet) for w in words], alphabet)


def ucore(h):
    return check_core_graph(core(h))


def tree(*words, alphabet=AL2):
    return FiniteSubtree([parse_word(w, alphabet) for w in words])


def test_subtree_validation():
    with pytest.raises(ValueError):
        FiniteSubtree([(1,)])  # missing the identity
    with pytest.raises(ValueError):
        FiniteSubtree([(), (1, 1)])  # not prefix-closed
    with pytest.raises(ValueError):
        FiniteSubtree([(), (1, -1)])  # unreduced vertex word
    t = tree("1", "a", "ab")
    assert t.num_vertices == 3
    assert t.num_edges == 2
    assert t.depth == 2


def test_subtree_degrees():
    t = tree("1", "a", "A", "ab")
    assert t.degree(()) == 2
    assert t.degree((1,)) == 2  # parent plus one child
    assert t.degree((-1,)) == 1
    assert t.degree((1, 2)) == 1


def test_round_graph_validation():
    with pytest.raises(ValueError):
        check_round_graph(tree("1", "a"), 1)  # root degree 1
    with pytest.raises(ValueError):
        check_round_graph(tree("1", "a", "A", "ab"), 2)  # leaf A at distance 1
    check_round_graph(tree("1", "a", "A"), 1)
    check_round_graph(tree("1", "a", "A", "ab", "AB"), 2)


def test_round_graph_counts_frozen():
    assert count_round_graphs(1, AL2) == 11
    assert count_round_graphs(2, AL2) == 4067
    assert count_round_graphs(1, AL3) == 57


def test_enumeration_matches_counts():
    assert len(enumerate_round_graphs(1, AL2)) == 11
    assert len(enumerate_round_graphs(1, AL3)) == 57
    assert len(enumerate_round_graphs(2, AL2)) == 4067


def test_enumeration_size_guard():
    with pytest.raises(SizeLimitError):
        enumerate_round_graphs(2, AL3)


def test_neighborhood_tree_oracle():
    g = ucore(sub("aa", "b"))
    # vertex with the b-loop sees all four letters, the midpoint only a
    profiles = sorted(
        t.words for t in (neighborhood_tree(g, v, 1) for v in range(2))
    )
    assert sorted(map(len, profiles)) == [3, 5]
    # radius 2 from the b-loop vertex: the a-arcs dead-end into single
    # continuations, the b-loop branches three ways on both sides
    deep = neighborhood_tree(g, 0, 2)
    assert deep.words == {
        (),
        (1,), (-1,), (2,), (-2,),
        (1, 1), (-1, -1),
        (2, 1), (2, -1), (2, 2),
        (-2, 1), (-2, -1), (-2, -2),
    }
    # radius 2 from the midpoint: around the cycle to the branchy vertex
    mid = neighborhood_tree(g, 1, 2)
    assert mid.words == {
        (),
        (1,), (-1,),
        (1, 1), (1, 2), (1, -2),
        (-1, -1), (-1, 2), (-1, -2),
    }


def test_neighborhood_profile_counts_vertices():
    for words in (["aa", "b"], ["ab", "ba"], ["aab", "ab"]):
        g = ucore(sub(*words))
        prof = neighborhood_profile(g, 1)
        assert sum(prof.values()) == g.graph.num_vertices


def test_occurrence_oracle_hand():
    g = ucore(sub("aa", "b"))
    assert occurrence_count(tree("1", "a"), g) == 2
    assert occurrence_count(tree("1", "b"), g) == 1
    assert occurrence_count(tree("1", "B"), g) == 1
    # interior degrees must match exactly
    assert occurrence_count(tree("1", "a", "A"), g) == 1
    assert occurrence_count(tree("1", "a", "b"), g) == 0
    assert occurrence_count(tree("1", "a", "A", "b"), g) == 0
    assert occurrence_count(tree("1", "a", "A", "b", "B"), g) == 1


def test_occurrence_rejects_degenerate():
    g = ucore(sub("a"))
    with pytest.raises(ValueError):
        occurrence_count(FiniteSubtree([()]), g)


def test_occurrence_matches_brute_force_sample():
    rng = random.Random(99)
    for _ in range(15):
        h = random_subgroup(rng, AL2)
        words = random_tree_words(rng, AL2, depth=3, grows=6)
        t = FiniteSubtree(words)
        if not t.nondegenerate:
            continue
        g = ucore(h)
        assert occurrence_count(t, g) == brute_force_occurrences(t, g.graph)


def test_counting_current_merges_conjugates():
    assert counting_current(sub("baaB")) == counting_current(sub("aa"))
    assert counting_current(sub("aa")) == counting_current(sub("a")).scale(2)


def test_normalize_merges_commensurable_terms():
    mu = normalize(
        [
            (Fraction(1), sub("aa").graph),
            (Fraction(1, 2), sub("aaa").graph),
        ]
    )
    terms = mu.terms()
    assert len(terms) == 1
    coeff, g = terms[0]
    # 1 * [A:a^2] + 1/2 * [A:a^3] over the common commensurator <a>
    assert coeff == Fraction(7, 2)
    assert g.graph.num_vertices == 1


def test_normalize_idempotent():
    rng = random.Random(4)
    for _ in range(10):
        mu = normalize(
            [
                (Fraction(rng.randint(1, 3), rng.randint(1, 3)), random_subgroup(rng, AL2).graph)
                for _ in range(rng.randint(1, 3))
            ]
        )
        again = normalize([(c, g) for c, g in mu.terms()])
        assert again == mu


def test_current_algebra():
    mu = counting_current(sub("aa", "b"))
    nu = counting_current(sub("ab"))
    s = mu + nu
    assert len(s.terms()) == 2
    assert s.scale(0).is_zero
    assert zero_current() + mu == mu
    with pytest.raises(ValueError):
        mu.scale(-1)
    with pytest.raises(ValueError):
        mu + counting_current(sub("a", alphabet=AL3))


def test_edge_and_vertex_counts():
    # the core of <a^n b> is an (n+1)-cycle with n a-edges and one b-edge
    for n in (1, 2, 5):
        mu = counting_current(sub("a" * n + "b"))
        assert eval_cylinder(mu, FiniteSubtree.edge(1)) == n
        assert eval_cylinder(mu, FiniteSubtree.edge(2)) == 1
        assert functional_E(mu) == n + 1
        assert functional_V(mu) == n + 1
        assert functional_rk(mu) == 0


def test_functional_V_matches_full_round_graph_sum():
    # sums and scalings mix terms whose grade-1 profiles differ, so the
    # observed trees of one term are missing from another
    mixed_profiles = 0
    checked = 0
    for alphabet in (AL2, AL3):
        rng = random.Random(31 + alphabet.rank)
        for _ in range(50):
            mu = random_current(rng, alphabet)
            nu = counting_current(random_subgroup(rng, alphabet)).scale(
                Fraction(rng.randint(1, 7), rng.randint(1, 5))
            )
            h = random_subgroup(rng, alphabet)
            cover = counting_current(
                random_finite_index_cover(h, rng.randint(2, 4), rng)
            )
            for rho in (mu, mu + nu, cover + nu.scale(Fraction(1, 3))):
                assert functional_V(rho) == functional_V_oracle(rho)
                profiles = {
                    frozenset(neighborhood_profile(g, 1)) for _, g in rho.terms()
                }
                mixed_profiles += len(profiles) > 1
                checked += 1
    assert checked == 300
    assert mixed_profiles >= 200
    assert functional_V(zero_current()) == functional_V_oracle(zero_current()) == 0


def test_functionals_on_core_graphs():
    for words in (["aa", "b"], ["ab", "ba"], ["a", "b"]):
        h = sub(*words)
        mu = counting_current(h)
        g = ucore(h)
        assert functional_E(mu) == len(g.graph.edges)
        assert functional_V(mu) == g.graph.num_vertices
        assert functional_rk(mu) == len(g.graph.edges) - g.graph.num_vertices


def test_eval_accepts_round_graphs():
    mu = counting_current(sub("aa", "b"))
    rg = neighborhood_tree(ucore(sub("aa", "b")), 1, 1)
    assert eval_cylinder(mu, rg) == 1


def test_tree_intersection():
    t1 = tree("1", "a", "A", "ab")
    t2 = tree("1", "a", "b", "ab")
    assert tree_intersection(t1, t2) == tree("1", "a", "ab")
    g = ucore(sub("aa", "b"))
    n0 = neighborhood_tree(g, 0, 1)
    n1 = neighborhood_tree(g, 1, 1)
    assert tree_intersection(n0, n1) == tree("1", "a", "A")


def test_c_hat_goldens():
    eta_a = counting_current(sub("a"))
    eta_b = counting_current(sub("b"))
    assert c_hat(eta_a, eta_b) == 1  # single isolated vertex
    assert c_hat(eta_a, eta_a) == 0  # the loop pairs with itself
    assert c_hat(
        counting_current(sub("aa", "b")), counting_current(sub("a", "bb"))
    ) == 1
    assert c_hat(zero_current(), eta_a) == 0


def test_c_hat_round_graph_routes_goldens():
    a_loop = ucore(sub("a"))
    b_loop = ucore(sub("b"))
    point = FiniteSubtree([()])
    assert c_hat_via_round_graphs(a_loop, b_loop, point) == 1
    assert c_hat_via_round_graphs(a_loop, b_loop, tree("1", "a")) == 0
    h = ucore(sub("aa", "b"))
    k = ucore(sub("a", "bb"))
    assert c_hat_via_round_graphs(h, k, point) == 1
    assert c_hat_via_round_graphs(h, k, tree("1", "a")) == 0
    # <a^2 b> against <a>: one 3-vertex a-path, centered occurrence only
    p = ucore(sub("aab"))
    assert c_hat_via_round_graphs(p, a_loop, tree("1", "a", "A")) == 1
    assert c_hat_via_round_graphs(p, a_loop, tree("1", "a")) == 0
    # <ab> against <a>: a single a-edge, one rooting per endpoint
    q = ucore(sub("ab"))
    assert c_hat_via_round_graphs(q, a_loop, tree("1", "a")) == 1
    assert c_hat_via_round_graphs(q, a_loop, tree("1", "A")) == 1


def test_c_hat_round_graph_routes_rank3():
    # grade 2 at rank 3 has 1073741637 round graphs, none of them enumerated:
    # the vertex-pair route builds one neighborhood tree per factor vertex
    h = ucore(sub("ac", "b", alphabet=AL3))
    assert c_hat_via_round_graphs(h, h, tree("1", "a", alphabet=AL3)) == 0
    # <ac, b> against itself: the diagonal carries the cycle, and the two
    # off-diagonal pairs are isolated points
    point = FiniteSubtree([()])
    assert c_hat_via_round_graphs(h, h, point) == 2
    eta = counting_current(sub("ac", "b", alphabet=AL3))
    assert c_hat(eta, eta) == 2
    # <ac, b> against <abc>: an A-a-C path, a single b-edge, one point
    k = ucore(sub("abc", alphabet=AL3))
    assert c_hat_via_round_graphs(h, k, tree("1", "a", "C", alphabet=AL3)) == 1
    assert c_hat_via_round_graphs(h, k, tree("1", "b", alphabet=AL3)) == 1
    assert c_hat_via_round_graphs(h, k, point) == 1


def test_intersection_functional_goldens():
    eta = lambda *w: counting_current(sub(*w))
    assert intersection_functional_N(eta("aa", "b"), eta("a", "bb")) == 1
    assert intersection_functional_N(eta("a"), eta("b")) == 0
    assert intersection_functional_N(eta("a"), eta("a")) == 0
    assert intersection_functional_N(eta("aa", "bb"), eta("ab")) == 0
    f2 = eta("a", "b")
    for words in (["aa", "b"], ["ab"], ["aba", "bb"]):
        mu = eta(*words)
        assert intersection_functional_N(f2, mu) == functional_rk(mu)
    assert intersection_functional_N(zero_current(), f2) == 0


def test_intersection_functional_bilinear():
    mu = counting_current(sub("aa", "b"))
    nu = counting_current(sub("a", "bb"))
    rho = counting_current(sub("ab"))
    n = intersection_functional_N
    assert n(mu.scale(Fraction(2, 3)), nu) == Fraction(2, 3) * n(mu, nu)
    assert n(mu + rho, nu) == n(mu, nu) + n(rho, nu)
    assert n(mu, nu) == n(nu, mu)


def test_pushforward_goldens():
    eta_a = counting_current(sub("a"))
    assert pushforward_I(eta_a, eta_a) == eta_a
    eta_b = counting_current(sub("b"))
    assert pushforward_I(eta_a, eta_b).is_zero
    for n in (1, 2, 4):
        mu = counting_current(sub("a" * n + "b"))
        assert pushforward_I(mu, eta_a).is_zero
    f2 = counting_current(sub("a", "b"))
    for words in (["aa", "b"], ["ab"], ["baaB"]):
        mu = counting_current(sub(*words))
        assert pushforward_I(mu, f2) == mu
    assert pushforward_I(zero_current(), f2).is_zero


def test_pushforward_rank_identity_sample():
    rng = random.Random(123)
    for _ in range(10):
        mu = counting_current(random_subgroup(rng, AL2))
        nu = counting_current(random_subgroup(rng, AL2))
        assert functional_rk(pushforward_I(mu, nu)) == intersection_functional_N(mu, nu)


def test_component_tree_match_is_unbased():
    # the pushforward of <a^2,b> with <a,b^2> is the squares subgroup
    pushed = pushforward_I(
        counting_current(sub("aa", "b")), counting_current(sub("a", "bb"))
    )
    assert pushed == counting_current(sub("aa", "bb"))
