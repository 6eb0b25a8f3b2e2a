"""Currents: subtrees, round graphs, cylinder counts, the functionals.

Round-graph totals were computed by hand from the branching count before
being frozen here: at rank 2 a grade-1 round graph is a subset of the four
letters of size >= 2 (11 of them), and grade 2 gives 8^4 - 1 - 4*7 = 4067;
at rank 3, 2^6 - 1 - 6 = 57.
"""

import functools
import hashlib
import random
from collections import Counter
from itertools import combinations_with_replacement
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetcurrents import currents, fiber, stallings
from subsetcurrents import (
    Alphabet,
    Endomorphism,
    FiniteSubtree,
    LabeledGraph,
    MismatchBugError,
    RationalCurrent,
    SizeLimitError,
    c_hat,
    canonical_key,
    check_core_graph,
    check_round_graph,
    contains,
    core,
    count_round_graphs,
    counting_current,
    enumerate_round_graphs,
    eval_cylinder,
    finite_index,
    from_generators,
    functional_E,
    functional_rk,
    functional_V,
    graph_from_json_dict,
    intersection_functional_N,
    invert,
    minimal_covering_quotient,
    neighborhood_profile,
    neighborhood_tree,
    normalize,
    occurrence_count,
    parse_word,
    pushforward_I,
    random_automorphism,
    random_finite_index_cover,
    random_reduced_word,
    random_subgroup,
    rank,
    zero_current,
)
from helpers import (
    all_cores,
    brute_force_occurrences,
    c_hat_oracle,
    c_hat_via_round_graphs,
    departures,
    edge_cylinders_oracle,
    functional_V_oracle,
    functional_V_stars_oracle,
    occurrence_count_oracle,
    random_current,
    random_tree_words,
    special_corpus,
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


def test_occurrence_count_matches_the_word_keyed_oracle():
    """Reading the tree by position counts what the earlier dict-per-vertex
    reader counted: on edge trees, grade-1 and grade-2 neighborhood trees
    and random subtrees, over seeded cores, covers and based graphs whose
    basepoint has degree 1 (so a vertex of degree 1 is met)."""
    rng = random.Random(2024)
    graphs, trees = [], {FiniteSubtree.edge(s) for s in AL2.signed_letters()}
    for _ in range(12):
        h = random_subgroup(rng, AL2)
        g = ucore(h)
        cover = random_finite_index_cover(h, rng.randint(2, 3), rng)
        conj = random_reduced_word(rng, AL2, rng.randint(1, 4))
        loop = random_reduced_word(rng, AL2, 3)
        while loop[0] == -conj[-1] or loop[-1] == conj[-1]:
            loop = random_reduced_word(rng, AL2, 3)
        tailed = from_generators([conj + loop + invert(conj)], AL2)
        assert len(departures(tailed)[tailed.basepoint]) == 1
        graphs += [g, cover, tailed]
        for r in (1, 2):
            trees.update(neighborhood_tree(g, v, r) for v in range(g.num_vertices))
        words = random_tree_words(rng, AL2, depth=3, grows=8)
        if len(words) > 1:
            trees.add(FiniteSubtree(words))
    totals = []
    for t in trees:
        counts = [occurrence_count(t, g) for g in graphs]
        assert counts == [occurrence_count_oracle(t, g) for g in graphs]
        totals.append(sum(counts))
    # trees that occur nowhere and trees that occur somewhere are both met
    assert 0 in totals and max(totals) > 0


@functools.cache
def _graphs_to_count_in(rank: int) -> list[LabeledGraph]:
    """Seeded cores, double covers and based graphs of the rank."""
    alphabet = Alphabet(rank)
    rng = random.Random(rank)
    graphs = []
    for _ in range(4):
        h = random_subgroup(rng, alphabet)
        graphs += [ucore(h), random_finite_index_cover(h, 2, rng), h]
    return graphs


@st.composite
def subtree_words(draw):
    """Rank 2 or 3 and a prefix-closed set of reduced words of length <= 3."""
    rank = draw(st.integers(2, 3))
    signed = Alphabet(rank).signed_letters()
    words = [()]
    for _ in range(draw(st.integers(0, 10))):
        base = draw(st.sampled_from(words))
        s = draw(st.sampled_from(signed))
        if len(base) < 3 and not (base and s == -base[-1]) and base + (s,) not in words:
            words.append(base + (s,))
    return rank, words


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(subtree_words())
def test_stored_subtree_form_matches_its_words(drawn):
    """The steps rebuild the word set in (length, word) order, each stored
    degree is the number of neighbours read off the words, and counting
    occurrences from the stored form agrees with the word-keyed oracle."""
    rank, words = drawn
    t = FiniteSubtree(words)
    rebuilt = [()]
    for p, s in t._steps:
        rebuilt.append(rebuilt[p] + (s,))
    assert rebuilt == t.sorted_words() == sorted(words, key=lambda w: (len(w), w))
    assert frozenset(rebuilt) == t.words
    for w, d in zip(rebuilt, t._degrees):
        children = sum(1 for v in words if v and v[:-1] == w)
        assert d == children + (1 if w else 0) == t.degree(w)
    assert t.depth == max(map(len, words))
    if t.nondegenerate:
        for g in _graphs_to_count_in(rank):
            assert occurrence_count(t, g) == occurrence_count_oracle(t, g)


def test_grade_2_enumeration_order_pinned():
    """The one recursion yields the round graphs of grade 2 at rank 2 in the
    order the separate root loop did."""
    text = "\n".join(t.serialize(AL2) for t in enumerate_round_graphs(2, AL2))
    assert hashlib.sha256(text.encode()).hexdigest().startswith("2d4e950d9bcb9c37")


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


def test_normalize_refines_each_term_once(monkeypatch):
    """The key of a term comes from the refinement that finds its quotient:
    one `_stable_classes` run per term, and the key is the quotient's
    `canonical_key`."""
    stable_classes = stallings._stable_classes
    runs = []

    def counted(graph):
        runs.append(graph)
        return stable_classes(graph)

    monkeypatch.setattr(stallings, "_stable_classes", counted)
    terms = [(1, sub("aa")), (1, sub("ab", "bA")), (2, sub("abab", "baba")), (1, sub("aaab"))]
    mu = normalize(terms)
    assert len(runs) == len(terms)
    assert list(mu._terms) == [canonical_key(g) for _, g in mu.terms()]


def test_normalize_decides_connectivity_once_per_term(monkeypatch):
    """`normalize` checks that the term graph is connected before coring
    it, and `_keyed_quotient` trusts that: one `component_ids()`
    computation for the term graph, none for its core."""
    component_ids = LabeledGraph.component_ids
    computed = []

    def counted(graph):
        if graph._components is None:
            computed.append(graph)
        return component_ids(graph)

    monkeypatch.setattr(LabeledGraph, "component_ids", counted)
    # the last one hangs its basepoint off the core by a b-arc
    for h in (sub("aa", "b"), sub("ab", "bA"), sub("baB")):
        g = LabeledGraph(h.rank, h.num_vertices, h.edges, basepoint=h.basepoint)
        computed.clear()
        counting_current(g)
        assert len(computed) == 1 and computed[0] is g


def test_normalize_fills_one_departure_table_per_graph_it_keeps(monkeypatch):
    """A core that nothing prunes is the term graph without its basepoint
    and shares its table, and a core that is its own minimal quotient is
    its own quotient: the based core of <a^3 b> fills one departure table,
    and its quotient is its core with degree 1.  A tailed graph fills one
    for the pruned core, and a proper double cover one for its core and
    one for the quotient."""
    moves = LabeledGraph.moves
    filled = []

    def counted(graph):
        if graph._moves is None:
            filled.append(graph)
        return moves(graph)

    monkeypatch.setattr(LabeledGraph, "moves", counted)
    cases = {"own quotient": ("aaab", 1, 1), "tailed": ("baaBB", 1, 1), "double cover": ("abab", 2, 2)}
    for name, (word, tables, degree) in cases.items():
        h = sub(word)
        g = LabeledGraph(h.rank, h.num_vertices, h.edges, basepoint=h.basepoint)
        filled.clear()
        ((coeff, term),) = counting_current(g).terms()
        assert (len(filled), coeff) == (tables, degree), name
        assert g._moves is None, name  # the term graph's own table is never read
    g = LabeledGraph(2, 4, sub("aaab").edges, basepoint=0)
    c = core(g)
    assert c.edges is g.edges and c.basepoint is None
    assert minimal_covering_quotient(c)[:2] == (c, 1)
    assert minimal_covering_quotient(c)[2] == [0, 1, 2, 3]
    assert core(g).moves() is not g.moves()  # a table built after the core is not shared
    assert core(g).moves() is g.moves()
    assert core(g)._places is g._places and core(g)._components is g._components
    tailed = sub("baaBB")
    assert core(tailed).moves() is not tailed.moves()


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


def _mixed_currents():
    """The 300 seeded currents of the test above, in the same order."""
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
            yield from (mu, mu + nu, cover + nu.scale(Fraction(1, 3)))


def test_departure_set_histogram_is_the_grade_1_profile():
    # functional_V reads each term's vertex count: every vertex roots one
    # occurrence of the star on its departure set and of no other grade-1
    # round graph, so the departure-set histogram is the occurrence counts
    checked = 0
    for rho in _mixed_currents():
        for _, g in rho.terms():
            g.moves()
            signed = Alphabet(g.rank)._signed
            histogram = Counter(frozenset(map(signed.__getitem__, p)) for p in g._places)
            counts = {
                frozenset(w[0] for w in t.words if w): occurrence_count(t, g)
                for t in neighborhood_profile(g, 1)
            }
            assert counts == histogram
            assert sum(counts.values()) == g.num_vertices
        checked += 1
    assert checked == 300


def _seeded_high_rank_currents(rank):
    """Counting currents of seeded cores at one rank, one sum and one scaled
    sum of two of them."""
    alphabet = Alphabet(rank)
    rng = random.Random(2800 + rank)
    etas = [
        counting_current(random_subgroup(rng, alphabet, max_gens=4, max_len=8))
        for _ in range(12)
    ]
    return etas + [etas[0] + etas[1], etas[2] + etas[3].scale(Fraction(5, 3))]


def test_grade_1_functionals_match_the_cylinder_oracles():
    # V, E and rk against the earlier one-cylinder-per-star and
    # one-cylinder-per-generator sums, and V against the sum over every
    # grade-1 round graph where the rank's round graphs fit under the cap
    special = [
        counting_current(h) for al in (AL2, AL3, Alphabet(7)) for h in special_corpus(al)
    ]
    corpus = [
        *_mixed_currents(), *special, *_seeded_high_rank_currents(7),
        *_seeded_high_rank_currents(26), zero_current(),
    ]
    full_sums = 0
    for rho in corpus:
        v = functional_V_stars_oracle(rho)
        cylinders = edge_cylinders_oracle(rho)
        e = sum(cylinders, Fraction(0))
        assert functional_V(rho) == v
        assert currents._edge_cylinders(rho) == cylinders
        assert functional_E(rho) == e
        assert functional_rk(rho) == e - v
        if rho.is_zero or count_round_graphs(1, Alphabet(rho.rank)) <= currents.ROUND_GRAPH_CAP:
            assert functional_V_oracle(rho) == v
            full_sums += 1
    assert len(corpus) == 300 + 27 + 14 + 14 + 1
    assert full_sums == 300 + 18 + 1


def _outcome(f, mu):
    """The value of f at mu, or the message of the ValueError it raises."""
    try:
        return f(mu)
    except ValueError as exc:
        return str(exc)


ROUND = "the root of a round graph has degree at least 2"
UNFOLDED = "following departures needs a folded graph; fold it first"
# two a-edges leave vertex 0
UNFOLDED_GRAPH = LabeledGraph(2, 2, [(0, 1, 1), (0, 0, 1), (1, 1, 2), (0, 0, 2)])


@pytest.mark.parametrize(
    "terms, expected",
    [
        ([LabeledGraph(2, 0, [])], (0, 0, 0)),
        # a rose beside an isolated vertex
        ([LabeledGraph(2, 2, [(0, 0, 1), (0, 0, 2)])], (ROUND, 2, ROUND)),
        ([UNFOLDED_GRAPH], (UNFOLDED,) * 3),
        # the based graph of <b^-1 a b> hangs its basepoint off the a-loop
        ([sub("Bab")], (ROUND, 2, ROUND)),
        # every term is folded before any is read as round graphs
        ([sub("Bab"), UNFOLDED_GRAPH], (UNFOLDED,) * 3),
    ],
)
def test_grade_1_functionals_refuse_as_the_cylinder_oracles(terms, expected):
    # hand-built terms that normalize would never store: the vertex and edge
    # counts return or refuse exactly as the cylinder sums they replace
    mu = RationalCurrent({bytes([i]): (Fraction(1), g) for i, g in enumerate(terms)})
    got = tuple(_outcome(f, mu) for f in (functional_V, functional_E, functional_rk))
    assert got == expected

    def e_oracle(mu):
        return sum(edge_cylinders_oracle(mu), Fraction(0))

    def rk_oracle(mu):
        return e_oracle(mu) - functional_V_stars_oracle(mu)

    oracle = tuple(_outcome(f, mu) for f in (functional_V_stars_oracle, e_oracle, rk_oracle))
    assert oracle == expected


def test_functional_V_refuses_a_term_with_a_degree_1_vertex():
    # the based graph of <b^-1 a b> hangs its basepoint off the a-loop
    tail = sub("Bab")
    assert sorted(map(len, departures(tail))) == [1, 3]
    mu = RationalCurrent({b"tail": (Fraction(1), tail)})
    with pytest.raises(ValueError, match="the root of a round graph has degree at least 2"):
        functional_V(mu)


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
    assert FiniteSubtree(t1.words & t2.words) == tree("1", "a", "ab")
    g = ucore(sub("aa", "b"))
    n0 = neighborhood_tree(g, 0, 1)
    n1 = neighborhood_tree(g, 1, 1)
    assert FiniteSubtree(n0.words & n1.words) == tree("1", "a", "A")


def test_c_hat_goldens():
    eta_a = counting_current(sub("a"))
    eta_b = counting_current(sub("b"))
    assert c_hat(eta_a, eta_b) == 1  # single isolated vertex
    assert c_hat(eta_a, eta_a) == 0  # the loop pairs with itself
    assert c_hat(
        counting_current(sub("aa", "b")), counting_current(sub("a", "bb"))
    ) == 1
    assert c_hat(zero_current(), eta_a) == 0


def test_c_hat_matches_the_report_oracle_on_the_small_core_census():
    # the counting currents of acceptance 20's 4,278 pairs
    etas = [
        counting_current(LabeledGraph(2, g.num_vertices, g.edges, basepoint=0))
        for g in all_cores(2, 3)
    ]
    pairs = list(combinations_with_replacement(etas, 2))
    assert len(pairs) == 4278
    values = [c_hat(mu, nu) for mu, nu in pairs]
    assert values == [c_hat_oracle(mu, nu) for mu, nu in pairs]
    assert sum(v > 0 for v in values) >= 1000


def test_c_hat_matches_the_report_oracle_on_multi_term_currents():
    # pushforwards and scaled sums carry several terms, so each pair of
    # currents is several products weighted by c1 * c2
    rng = random.Random(91)
    multi = positive = 0
    for rank in (2, 3, 4):
        alphabet = Alphabet(rank)
        for _ in range(8):
            mu, nu, rho = (random_current(rng, alphabet) for _ in range(3))
            pushed = pushforward_I(mu + rho, nu + rho)
            summed = mu.scale(Fraction(rng.randint(1, 5), rng.randint(1, 3))) + nu
            for x, y in [(mu, nu), (pushed, mu), (pushed, pushed), (summed, rho), (summed, pushed)]:
                value = c_hat(x, y)
                assert value == c_hat_oracle(x, y)
                multi += len(x.terms()) * len(y.terms()) > 1
                positive += value > 0
    assert multi >= 60
    assert positive >= 40


def test_c_hat_builds_no_fiber_product(monkeypatch):
    counts = {"FiberProduct": 0, "classify_components": 0}
    init, classify = fiber.FiberProduct.__init__, fiber.classify_components

    def counted_init(fp, left, right):
        counts["FiberProduct"] += 1
        init(fp, left, right)

    def counted_classify(fp):
        counts["classify_components"] += 1
        return classify(fp)

    monkeypatch.setattr(fiber.FiberProduct, "__init__", counted_init)
    monkeypatch.setattr(fiber, "classify_components", counted_classify)
    eta = lambda *w: counting_current(sub(*w))
    pairs = [
        (eta("aa", "b"), eta("a", "bb")),
        (eta("a"), eta("b")),
        (eta("ab", "ba", "aab") + eta("a", "bab"), eta("a", "bab").scale(2)),
    ]
    assert [intersection_functional_N(mu, nu) for mu, nu in pairs] == [1, 0, 4]
    assert counts == {"FiberProduct": 0, "classify_components": 0}
    # the counters do see the products that pushforward_I builds
    pushforward_I(*pairs[0])
    assert counts == {"FiberProduct": 1, "classify_components": 1}


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


PAIRINGS = {"c_hat": c_hat, "N": intersection_functional_N, "I": pushforward_I}


@pytest.mark.parametrize("name", sorted(PAIRINGS))
def test_pairings_share_the_zero_and_rank_preamble(name):
    pair = PAIRINGS[name]
    eta2 = counting_current(sub("aa", "b"))
    eta3 = counting_current(sub("ac", "b", alphabet=AL3))
    with pytest.raises(ValueError, match="different ambient ranks"):
        pair(eta2, eta3)
    with pytest.raises(ValueError, match="different ambient ranks"):
        pair(eta3, eta2)
    zero = zero_current()
    for mu, nu in [(zero, eta2), (eta2, zero), (zero, eta3), (eta3, zero), (zero, zero)]:
        assert pair(mu, nu) == (zero if name == "I" else 0)
    assert functional_E(zero) == functional_rk(zero) == 0


INPUT_REFUSALS = {
    "edge-origin-out-of-range": (lambda: LabeledGraph(2, 2, [(2, 0, 1)]), "vertex range"),
    "edge-terminus-out-of-range": (lambda: LabeledGraph(2, 2, [(0, -1, 1)]), "vertex range"),
    "label-0": (lambda: LabeledGraph(2, 1, [(0, 0, 0)]), "label 0 out of range"),
    "label-above-rank": (lambda: LabeledGraph(2, 1, [(0, 0, 3)]), "label 3 out of range"),
    "basepoint-out-of-range": (
        lambda: LabeledGraph(2, 1, [(0, 0, 1)], basepoint=1), "basepoint 1 out of range"
    ),
    "rank-1": (
        lambda: LabeledGraph(1, 1, [(0, 0, 1)], basepoint=0), "rank must be at least 2, got 1"
    ),
    "rank-0": (lambda: LabeledGraph(0, 1, []), "rank must be at least 2, got 0"),
    "negative-coefficient": (
        lambda: normalize([(1, sub("a")), (-1, sub("b"))]), "must be nonnegative"
    ),
    "rank-float": (lambda: LabeledGraph(2.0, 1, []), "rank must be an integer"),
    "num-vertices-negative": (
        lambda: LabeledGraph(2, -1, []), "num_vertices must be nonnegative, got -1"
    ),
    "num-vertices-float": (
        lambda: LabeledGraph(2, 2.5, []), "num_vertices must be an integer, got 2.5"
    ),
    "basepoint-bool": (
        lambda: LabeledGraph(2, 2, [(0, 0, 1)], basepoint=True), "basepoint must be an integer"
    ),
    "label-bool": (lambda: LabeledGraph(2, 1, [(0, 0, True)]), "must have integer entries"),
    "label-float": (lambda: LabeledGraph(2, 1, [(0, 0, 1.0)]), "must have integer entries"),
    "origin-float": (lambda: LabeledGraph(2, 2, [(1.0, 0, 1)]), "must have integer entries"),
    "rank-of-no-vertices": (lambda: rank(LabeledGraph(2, 0, [])), "connected graph"),
    "float-scale": (lambda: counting_current(sub("ab")).scale(0.1), "got float 0.1"),
    "float-coefficient": (lambda: normalize([(0.1, sub("ab"))]), "got float 0.1"),
    "neighborhood-vertex-negative": (
        lambda: neighborhood_tree(ucore(sub("ab")), -1, 1), "vertex -1 out of range 0..1"
    ),
    "neighborhood-vertex-past-end": (
        lambda: neighborhood_tree(ucore(sub("aab")), 3, 1), "vertex 3 out of range 0..2"
    ),
    "neighborhood-vertex-bool": (
        lambda: neighborhood_tree(ucore(sub("ab")), True, 1), "vertex must be an integer"
    ),
    "neighborhood-radius-float": (
        lambda: neighborhood_tree(ucore(sub("ab")), 0, 1.0), "radius must be an integer"
    ),
    "subtree-letter-0": (
        lambda: eval_cylinder(counting_current(sub("aa", "b")), FiniteSubtree([(), (0,)])),
        "ends in 0, not a nonzero int letter",
    ),
    "subtree-letter-bool": (lambda: FiniteSubtree([(), (True,)]), "ends in True"),
    "subtree-letter-float": (lambda: FiniteSubtree([(), (1.0,)]), "ends in 1.0"),
    "subtree-letter-str-inside": (
        lambda: FiniteSubtree([(), (1,), (1, "b"), (1, "b", 2)]), "ends in 'b'"
    ),
    "subtree-letter-above-rank": (
        lambda: eval_cylinder(counting_current(sub("aa", "b")), FiniteSubtree([(), (3,)])),
        "exceed the graph's rank 2",
    ),
    "contains-letter-float": (
        lambda: contains(sub("aa", "b"), (1.0, 1.0)), "letter 1.0 is not valid for rank 2"
    ),
    "contains-letter-float-inside": (
        lambda: contains(sub("aa", "b"), (2, 1.0, -1.0)), "letter 1.0 is not valid for rank 2"
    ),
    "contains-letter-0": (
        lambda: contains(sub("aa", "b"), (0,)), "letter 0 is not valid for rank 2"
    ),
    "contains-letter-above-rank": (
        lambda: contains(sub("aa", "b"), (3,)), "letter 3 is not valid for rank 2"
    ),
    "contains-letter-str": (
        lambda: contains(sub("aa", "b"), (1, "a")), "letter 'a' is not valid for rank 2"
    ),
    "contains-letter-bool": (
        lambda: contains(sub("aa", "b"), (True, True)), "letter True is not valid for rank 2"
    ),
    # from_generators checks before it reduces or folds
    "from-generators-float-cancelling": (
        lambda: from_generators([(2, 1, -1.0)], AL2), "letter -1.0 is not valid for rank 2"
    ),
    "from-generators-letter-0": (
        lambda: from_generators([(1,), (0,)], AL2), "letter 0 is not valid for rank 2"
    ),
    "from-generators-letter-0-inside": (
        lambda: from_generators([(1, 0, 2)], AL2), "letter 0 is not valid for rank 2"
    ),
    "from-generators-letter-above-rank": (
        lambda: from_generators([(3,)], AL2), "letter 3 is not valid for rank 2"
    ),
    "from-generators-letter-bool": (
        lambda: from_generators([(2,), (True,)], AL2), "letter True is not valid for rank 2"
    ),
    "alphabet-rank-float": (lambda: Alphabet(2.0), "rank must be an integer, got 2.0"),
    # a departure row has 2N + 1 slots, so a rank above the ceiling is
    # refused before any row or letter list is made
    "rank-above-the-ceiling": (
        lambda: LabeledGraph(10**30, 1, [(0, 0, 1), (0, 0, 2)], basepoint=0),
        f"rank {10**30} exceeds the ceiling of 4096",
    ),
    "alphabet-rank-above-the-ceiling": (
        lambda: Alphabet(10**30), f"rank {10**30} exceeds the ceiling of 4096"
    ),
    "occurrence-edge-above-rank": (
        lambda: occurrence_count(FiniteSubtree.edge(-3), ucore(sub("aa", "b"))),
        "exceed the graph's rank 2",
    ),
    # normalize checks connectivity before coring, so a tree component
    # cannot be pruned away and leave one looped component standing
    "normalize-tree-beside-a-loop": (
        lambda: counting_current(LabeledGraph(2, 3, [(0, 0, 1), (0, 0, 2), (1, 2, 1)])),
        "single subgroup class",
    ),
    "current-mixed-ranks": (
        lambda: RationalCurrent({
            b"2": (Fraction(1), ucore(sub("a", "b"))),
            b"3": (Fraction(1), ucore(sub("a", "b", "c", alphabet=AL3))),
        }),
        "share one ambient rank",
    ),
    "current-coefficient-0": (
        lambda: RationalCurrent({b"2": (Fraction(0), ucore(sub("a", "b")))}),
        "positive coefficients",
    ),
    "round-graph-grade-0": (
        lambda: check_round_graph(FiniteSubtree([(), (1,), (2,)]), 0), "grade at least 1"
    ),
    "round-graph-star-at-grade-2": (
        lambda: check_round_graph(FiniteSubtree([(), (1,), (-1,), (2,), (-2,)]), 2),
        "depth 1 does not match grade 2",
    ),
    "cylinder-of-the-root-alone": (
        lambda: eval_cylinder(counting_current(sub("aa", "b")), FiniteSubtree([()])),
        "needs a subtree with an edge",
    ),
    "neighborhood-radius-0": (
        lambda: neighborhood_tree(ucore(sub("ab")), 0, 0), "radius must be at least 1"
    ),
    "round-graph-count-grade-0": (
        lambda: count_round_graphs(0, AL2), "grade must be at least 1"
    ),
    "json-vertices-with-a-gap": (
        lambda: graph_from_json_dict(
            {"rank": 2, "vertices": [0, 2], "edges": [[0, 0, 1]], "basepoint": 0}
        ),
        "vertices must be the integers 0..n-1",
    ),
    "cover-degree-0": (
        lambda: random_finite_index_cover(sub("aa", "b"), 0, random.Random(0)),
        "degree must be positive",
    ),
    # size and count arguments: each is a plain int, then in its range
    "induced-subgraph-vertex-past-end": (
        lambda: stallings.induced_subgraph(sub("ab", "bA"), [0, 5]), "vertex 5 out of range 0..1"
    ),
    "induced-subgraph-vertex-negative": (
        lambda: stallings.induced_subgraph(sub("ab", "bA"), [-1, 0]), "vertex -1 out of range 0..1"
    ),
    "induced-subgraph-vertex-float": (
        lambda: stallings.induced_subgraph(sub("ab", "bA"), [0, 1.0]),
        "vertex must be an integer, got 1.0",
    ),
    "random-word-length-negative": (
        lambda: random_reduced_word(random.Random(0), AL2, -3), "length must be nonnegative, got -3"
    ),
    "random-word-length-float": (
        lambda: random_reduced_word(random.Random(0), AL2, 2.0),
        "length must be an integer, got 2.0",
    ),
    "random-automorphism-length-negative": (
        lambda: random_automorphism(random.Random(0), AL2, -1), "length must be nonnegative, got -1"
    ),
    "random-automorphism-length-float": (
        lambda: random_automorphism(random.Random(0), AL2, 1.5),
        "length must be an integer, got 1.5",
    ),
    "round-graph-count-grade-bool": (
        lambda: count_round_graphs(True, AL2), "grade must be an integer, got True"
    ),
    "round-graph-count-grade-float": (
        lambda: count_round_graphs(1.5, AL2), "grade must be an integer, got 1.5"
    ),
    "round-graph-grade-float": (
        lambda: check_round_graph(FiniteSubtree([(), (1,), (-1,)]), 1.0),
        "grade must be an integer, got 1.0",
    ),
    "cover-degree-bool": (
        lambda: random_finite_index_cover(sub("aa", "b"), True, random.Random(0)),
        "degree must be an integer, got True",
    ),
    "cover-degree-float": (
        lambda: random_finite_index_cover(sub("aa", "b"), 2.0, random.Random(0)),
        "degree must be an integer, got 2.0",
    ),
    "random-subgroup-no-generators": (
        lambda: random_subgroup(random.Random(0), AL2, 0, 3),
        "max_gens and max_len must be at least 1, got 0 and 3",
    ),
    "random-subgroup-empty-generators": (
        lambda: random_subgroup(random.Random(0), AL2, 3, 0),
        "max_gens and max_len must be at least 1, got 3 and 0",
    ),
    "random-subgroup-generators-float": (
        lambda: random_subgroup(random.Random(0), AL2, 2.0, 3),
        "max_gens must be an integer, got 2.0",
    ),
    "finite-index-across-ranks": (
        lambda: finite_index(sub("a", "b"), sub("a", "b", "c", alphabet=AL3)),
        "different ambient ranks",
    ),
    "endomorphism-too-few-images": (
        lambda: Endomorphism([(1,)], AL2), "need 2 generator images, got 1"
    ),
    "compose-across-alphabets": (
        lambda: Endomorphism.identity(AL2).compose(Endomorphism.identity(AL3)),
        "endomorphisms of different alphabets",
    ),
    "compact-word-at-rank-27": (
        lambda: parse_word("ab", Alphabet(27)), "compact format covers ranks up to 26"
    ),
    "indexed-word-with-a-stray-letter": (
        lambda: parse_word("x1x2y", AL2), "unknown token at 'y'"
    ),
    # a word that cannot be hashed is refused, not left to raise TypeError
    "subtree-word-holding-a-list": (
        lambda: FiniteSubtree([(), ([],)]), "vertex words must be tuples of int letters"
    ),
    "subtree-list-letter-inside": (
        lambda: FiniteSubtree([(), (1,), (1, [2])]), "vertex words must be tuples of int letters"
    ),
    # a coefficient is an int that is not a bool, or a Fraction; nothing is parsed
    "bool-scale": (lambda: counting_current(sub("ab")).scale(True), "got bool True"),
    "bool-coefficient": (lambda: normalize([(True, sub("ab"))]), "got bool True"),
    "str-scale": (lambda: counting_current(sub("ab")).scale("1/3"), "got str '1/3'"),
    "str-coefficient": (lambda: normalize([("2", sub("ab"))]), "got str '2'"),
    "decimal-scale": (
        lambda: counting_current(sub("ab")).scale(Decimal("0.1")), r"got Decimal Decimal\('0.1'\)"
    ),
    "decimal-coefficient": (
        lambda: normalize([(Decimal("0.1"), sub("ab"))]), r"got Decimal Decimal\('0.1'\)"
    ),
    "none-scale": (lambda: counting_current(sub("ab")).scale(None), "got NoneType None"),
    "complex-coefficient": (lambda: normalize([(1j, sub("ab"))]), "got complex 1j"),
    # the constructor is the one door for the shape of an edge
    "edge-int": (lambda: LabeledGraph(2, 2, [1]), r"edge 1 is not \[origin, terminus, label\]"),
    "edge-none": (
        lambda: LabeledGraph(2, 2, [None]), r"edge None is not \[origin, terminus, label\]"
    ),
    "edge-two-entries": (
        lambda: LabeledGraph(2, 2, [(0, 1)]), r"edge \(0, 1\) is not \[origin, terminus, label\]"
    ),
    # the doors check the container before its entries
    "edges-none": (lambda: LabeledGraph(2, 2, None), "edges must be an iterable of edges, got None"),
    "edges-int": (lambda: LabeledGraph(2, 2, 5), "edges must be an iterable of edges, got 5"),
    "terms-none": (
        lambda: normalize(None), r"terms must be \(coefficient, graph\) pairs, got None"
    ),
    "term-bare-coefficient": (
        lambda: normalize([1]), r"a term is a \(coefficient, graph\) pair, got 1"
    ),
    "term-graph-str": (
        lambda: normalize([(1, "x")]), "a term's graph must be a LabeledGraph, got 'x'"
    ),
}


@pytest.mark.parametrize("name", sorted(INPUT_REFUSALS))
def test_malformed_graphs_and_terms_are_refused(name):
    build, message = INPUT_REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        build()


def test_normalize_skips_zero_coefficients():
    # an edgeless graph has no core, so reaching it at all would raise
    empty = LabeledGraph(2, 1, [])
    assert normalize([(0, empty)]) == zero_current()
    assert normalize([(0, empty), (2, sub("ab"))]) == counting_current(sub("ab")).scale(2)
