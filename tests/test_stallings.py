"""Core graphs: folding, membership, index, commensurators, covers.

Expected vertex/edge counts were folded by hand before the assertions
were written; the comments sketch the foldings.
"""

import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from subsetcurrents import (
    Alphabet,
    EmptyCoreError,
    Endomorphism,
    FiniteSubtree,
    LabeledGraph,
    NotConnectedError,
    NotSubgroupError,
    SizeLimitError,
    TrivialSubgroupError,
    WordFormatError,
    act_on_subgroup,
    canonical_key,
    canonical_key_based,
    check_core_graph,
    commensurator,
    component_subgroup,
    concat,
    contains,
    core,
    counting_current,
    fiber_product,
    finite_index,
    fold,
    format_word,
    from_generators,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    intersection_number_cosets,
    invert,
    minimal_covering_quotient,
    neighborhood_profile,
    neighborhood_tree,
    occurrence_count,
    parse_subgroup_file,
    parse_word,
    random_finite_index_cover,
    random_reduced_word,
    random_subgroup,
    rank,
    reduced_rank,
    subgroup_generators,
)

from subsetcurrents import cli, stallings
from subsetcurrents.fiber import _product_edges
from subsetcurrents.words import MAX_RANK
from subsetcurrents.stallings import (
    MAX_TABLE_SLOTS,
    UnionFind,
    _core_and_tail,
    _keyed_quotient,
    _prune,
    _stable_classes,
    core_based,
)

from helpers import (
    GOOD_JSON,
    _wl_classes,
    all_cores,
    assert_tree_matches_oracle,
    attach_tail_oracle,
    canonical_key_based_dict_oracle,
    canonical_key_dict_oracle,
    canonical_key_oracle,
    core_and_tail_oracle,
    core_vertices_oracle,
    covering_quotient_oracle,
    finite_index_oracle,
    finite_index_two_pass_oracle,
    fold_oracle,
    from_generators_oracle,
    germ_lists_oracle,
    is_folded_oracle,
    random_reduced_word_oracle,
    stable_classes_oracle,
    subgroup_corpus,
    wedge,
)

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


def test_canonical_key_error_cases():
    disconnected = LabeledGraph(2, 2, [(0, 0, 1), (1, 1, 2)])
    with pytest.raises(NotConnectedError):
        canonical_key(disconnected)
    with pytest.raises(EmptyCoreError, match="at least one vertex"):
        canonical_key(LabeledGraph(2, 0, []))


def renamed(graph, perm):
    """The graph with vertex v renamed perm[v]."""
    return LabeledGraph(
        graph.rank, graph.num_vertices, [(perm[o], perm[t], lab) for o, t, lab in graph.edges]
    )


def relabelled(graph, rng):
    perm = list(range(graph.num_vertices))
    rng.shuffle(perm)
    return renamed(graph, perm)


def cayley_cyclic(n, steps):
    """Cayley graph of Z/n: the i-th generator adds steps[i-1]."""
    return LabeledGraph(
        len(steps),
        n,
        [(v, (v + k) % n, i) for i, k in enumerate(steps, 1) for v in range(n)],
    )


def power_cycle(n):
    """The core of <a^n b>: a cycle reading a^n b."""
    edges = [(v, v + 1, 1) for v in range(n)] + [(n, 0, 2)]
    return LabeledGraph(2, n + 1, edges)


def canonical_key_corpus():
    """Seeded cores at ranks 2-4 with a cover, the minimal covering
    quotients of both and relabelled copies of each; cyclic Cayley graphs,
    where every vertex is in class 0; a^n b cycles, which are their own
    minimal covering quotients."""
    rng = random.Random(88)
    graphs = []
    cores = 0
    while cores < 300:
        al = Alphabet(2 + cores % 3)
        try:
            h = random_subgroup(rng, al, max_gens=4, max_len=8)
            cg = core(h)
        except (TrivialSubgroupError, EmptyCoreError):
            continue
        cores += 1
        cover = core(random_finite_index_cover(h, rng.randint(2, 4), rng))
        for g in (cg, cover):
            graphs += [g, minimal_covering_quotient(g)[0], relabelled(g, rng)]
    for n in range(1, 41):
        graphs.append(cayley_cyclic(n, (1, rng.randrange(n))))
        graphs.append(cayley_cyclic(n, (1, rng.randrange(n), rng.randrange(n))))
        graphs.append(relabelled(power_cycle(n), rng))
    return graphs


def test_canonical_key_matches_oracle():
    """The key and the all-starts oracle differ in bytes, so compare the
    equality relations they induce: a graph's pair of keys is determined by
    either key alone exactly when both relations are the same."""
    rng = random.Random(21)
    graphs = []
    for g in canonical_key_corpus():
        graphs += [g, relabelled(g, rng), relabelled(g, rng)]
    keys = [canonical_key(g) for g in graphs]
    oracle = [canonical_key_oracle(g) for g in graphs]
    assert len(set(keys)) == len(set(oracle)) == len(set(zip(keys, oracle))) == 669


def test_normalize_key_is_the_canonical_key_of_the_quotient():
    for g in canonical_key_corpus():
        assert _keyed_quotient(g)[3] == canonical_key(minimal_covering_quotient(g)[0])


def test_stable_classes_are_canonical():
    """An isomorphism maps class i onto class i: renaming the vertices
    renames the class array and changes no id."""
    rng = random.Random(22)
    for g in canonical_key_corpus():
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        classes = _stable_classes(g)
        again = _stable_classes(renamed(g, perm))
        assert [again[perm[v]] for v in range(g.num_vertices)] == classes


def _by_first_occurrence(classes):
    first = {}
    return [first.setdefault(c, len(first)) for c in classes]


def test_stable_classes_match_oracle():
    for g in canonical_key_corpus():
        assert _by_first_occurrence(_stable_classes(g)) == _by_first_occurrence(_wl_classes(g))


def test_list_row_refinement_and_keys_match_the_dict_row_oracles():
    """Reading each letter from the list rows of a snapshot of the splitter
    gives the class ids of the earlier refinement over dict rows, and keys
    read through `operator.itemgetter` are the bytes of keys read from the
    dict-order table: on the folded seeded multigraphs (disconnected ones
    for the class ids alone), every rank-2 core on at most 3 vertices, two
    Cayley graphs of Z/400, and a^n b, a^n b^n and (a^2 b^2)^n a b."""
    graphs = [fold(g) for g in random_multigraphs()] + all_cores(2, 3)
    graphs += [cayley_cyclic(400, (1, 7)), cayley_cyclic(400, (1, 0))]
    for n in (1, 2, 5, 40, 400):
        graphs += [power_cycle(n)]
        graphs += [core(from_generators([w], AL2)) for w in [(1,) * n + (2,) * n,
                                                             (1, 1, 2, 2) * n + (1, 2)]]
    discrete = keyed = 0
    for g in graphs:
        classes = _stable_classes(g)
        assert classes == stable_classes_oracle(g)
        discrete += len(set(classes)) == g.num_vertices
        if g.is_connected():
            keyed += 1
            assert canonical_key(g) == canonical_key_dict_oracle(g)
            based = LabeledGraph(g.rank, g.num_vertices, g.edges, basepoint=g.num_vertices // 2)
            assert canonical_key_based(based) == canonical_key_based_dict_oracle(based)
    assert discrete >= 100 and len(graphs) - discrete >= 100
    assert keyed >= 250


def test_rank_ceiling_refuses_before_anything_is_built():
    """A rank above `MAX_RANK` is refused by `Alphabet` and the graph
    constructor with `SizeLimitError`, before a row or a letter list is
    made; the ceiling itself is accepted."""
    builds = [
        lambda: LabeledGraph(10**30, 1, [(0, 0, 1), (0, 0, 2)], basepoint=0),
        lambda: LabeledGraph(MAX_RANK + 1, 1, []),
        lambda: Alphabet(10**30),
        lambda: Alphabet(MAX_RANK + 1),
    ]
    tracemalloc.start()
    try:
        for build in builds:
            with pytest.raises(SizeLimitError, match=f"exceeds the ceiling of {MAX_RANK}"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    top = LabeledGraph(MAX_RANK, 1, [(0, 0, MAX_RANK)], basepoint=0)
    assert len(top.moves()[0]) == 2 * MAX_RANK
    assert top._places == [[2 * MAX_RANK - 2, 2 * MAX_RANK - 1]]
    assert contains(top, (MAX_RANK, -MAX_RANK, -MAX_RANK))
    assert Alphabet(MAX_RANK).rank == MAX_RANK


def test_table_budget_refuses_before_the_rows_are_built(monkeypatch):
    """`moves()` refuses a table of more than `MAX_TABLE_SLOTS` slots with
    `SizeLimitError` before a row is made, and `is_folded` passes the
    refusal on instead of answering False; a table at the budget is built."""
    n = MAX_TABLE_SLOTS // (2 * MAX_RANK) + 1
    wide = LabeledGraph(MAX_RANK, n, [(v, (v + 1) % n, MAX_RANK) for v in range(n)])
    tracemalloc.start()
    try:
        for call in (wide.moves, wide.is_folded, lambda: check_core_graph(wide)):
            with pytest.raises(SizeLimitError, match=f"above the budget of {MAX_TABLE_SLOTS}"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024 and wide._moves is None
    monkeypatch.setattr(stallings, "MAX_TABLE_SLOTS", 4 * 20)
    for n, fits in ((20, True), (21, False)):
        cycle = LabeledGraph(2, n, [(v, (v + 1) % n, 1) for v in range(n)])
        if fits:
            assert cycle.is_folded() and len(cycle.moves()) == n
        else:
            with pytest.raises(SizeLimitError, match="21 vertices at rank 2 has 84 slots"):
                cycle.is_folded()


def test_departure_reads_do_not_grow_with_the_rank():
    """The refinement and the neighborhood walk read a row only at the
    letters some vertex departs by: on the core of <a^300 x>, with x = b at
    rank 2 and x = x1000 at rank 1000, they make the same number of row
    reads, and the refinement gives the same class ids."""
    reads = []

    class Counted(list):
        def __getitem__(self, s):
            reads.append(s)
            return list.__getitem__(self, s)

    seen = []
    for n in (2, 1000):
        g = core(from_generators([(1,) * 300 + (n,)], Alphabet(n)))
        g._moves = [Counted(row) for row in g.moves()]
        reads.clear()
        classes = _stable_classes(g)
        refinement = len(reads)
        reads.clear()
        for v in range(g.num_vertices):
            neighborhood_tree(g, v, 2)
        seen.append((classes, refinement, len(reads)))
    assert seen[0] == seen[1]
    assert seen[0][1] < 40 * 301


def test_covering_quotient_budget(acceptance):
    # Re-sorting every signature once per round, about n/2 rounds on these
    # cycles, took 6.85 s on the quotient at n = 2000.
    n = 16000
    cycle = core(from_generators([(1,) * n + (2,)], AL2))
    pair = from_generators([(1,) * 4000 + (2,), (2, 1, 2)], AL2)
    label = "quotient of the core of a^16000 b and eta(<a^4000 b, bab>) within 1 s each"
    with acceptance(17, label):
        start = time.perf_counter()
        quotient, degree, _ = minimal_covering_quotient(cycle)
        elapsed = time.perf_counter() - start
        assert (quotient.num_vertices, degree) == (n + 1, 1)
        assert elapsed < 1.0, f"quotient: {elapsed:.2f} s"
        start = time.perf_counter()
        (term,) = counting_current(pair).terms()
        elapsed = time.perf_counter() - start
        # the a^4000 b cycle plus a b-chord from 0 to 2, which covers nothing smaller
        assert (term[1].num_vertices, len(term[1].edges)) == (4001, 4002)
        assert elapsed < 1.0, f"counting current: {elapsed:.2f} s"


def test_counting_current_of_long_runs_budget(acceptance):
    # Starting a BFS code at every vertex, and dropping a start at its first
    # losing row, took 12.5 s on <a^4000 b^4000>: most starts tie for
    # thousands of rows along a run of one letter.
    n = 4000
    words = [(1,) * n + (2,) * n, (1, 1, 2, 2) * (n // 2) + (1, 2)]
    label = "counting_current of <a^4000 b^4000> and <(a^2 b^2)^2000 a b> within 1 s each"
    with acceptance(19, label):
        for w in words:
            start = time.perf_counter()
            ((coeff, g),) = counting_current(from_generators([w], AL2)).terms()
            elapsed = time.perf_counter() - start
            assert (coeff, g.num_vertices) == (1, len(w))
            assert elapsed < 1.0, f"|w| = {len(w)}: {elapsed:.2f} s"


def test_canonical_key_budget(acceptance):
    rng = random.Random(38)
    big = core(from_generators([random_reduced_word(rng, AL2, 120) for _ in range(8)], AL2))
    assert big.num_vertices == 921
    # Z/400 covers the rose 400 times, so all of its vertices are class 0
    ladder = [(big, 1.0), (cayley_cyclic(400, (1, 7)), 1.0)]
    with acceptance(14, "canonical keys of a V=921 core and of Z/400 within 1 s each"):
        for graph, budget in ladder:
            start = time.perf_counter()
            canonical_key(graph)
            elapsed = time.perf_counter() - start
            assert elapsed < budget, f"V={graph.num_vertices}: {elapsed:.2f} s"


def _centralizer_order(g: LabeledGraph) -> int:
    """|Aut| of a transitive cover of the rose, read off its edge list as
    the centralizer of its permutations in S_n: the vertices v for which
    0 -> v extends along the labels to a label-preserving bijection."""
    perms = {}
    for o, t, lab in g.edges:
        perms.setdefault(lab, {})[o] = t
    count = 0
    for v in range(g.num_vertices):
        sigma, queue, consistent = {0: v}, [0], True
        for x in queue:
            for p in perms.values():
                y, image = p[x], p[sigma[x]]
                if y not in sigma:
                    sigma[y] = image
                    queue.append(y)
                consistent &= sigma[y] == image
        count += consistent and sorted(sigma.values()) == list(range(g.num_vertices))
    return count


def test_keys_count_subgroups_of_finite_index():
    """Index-n subgroups of F_2 are the transitive pairs of permutations of
    n points based at 0, up to renaming the other points, and Hall (1949)
    counts them: a_n = n * n! - sum_{k<n} (n-k)! * a_k.  Their conjugacy
    classes are the same pairs unbased, and rebasing walks a class's
    subgroups, so each `canonical_key` class holds one rebasing orbit of
    `canonical_key_based` values; the classes number 1, 3, 7, 26, 97
    (OEIS A057005).  A class of index n has n / |Aut| subgroups, with
    |Aut| counted from its permutations alone, so those add up to a_n."""
    hall = [0]
    for n in range(1, 6):
        smaller = sum(math.factorial(n - k) * hall[k] for k in range(1, n))
        hall.append(n * math.factorial(n) - smaller)
        based = {}
        for a, b in itertools.product(itertools.permutations(range(n)), repeat=2):
            reached = {0}
            for _ in range(n):
                reached |= {a[v] for v in reached} | {b[v] for v in reached}
            if len(reached) == n:
                edges = [(v, a[v], 1) for v in range(n)] + [(v, b[v], 2) for v in range(n)]
                g = LabeledGraph(2, n, edges, basepoint=0)
                based.setdefault(canonical_key_based(g), g)
        assert len(based) == hall[n]
        classes = {}
        for key, g in based.items():
            classes.setdefault(canonical_key(g), set()).add(key)
        subgroups = 0
        for members in classes.values():
            g = based[min(members)]
            rebased = [LabeledGraph(2, n, g.edges, basepoint=v) for v in range(n)]
            assert {canonical_key_based(r) for r in rebased} == members
            subgroups += Fraction(n, _centralizer_order(g))
        assert len(classes) == [1, 3, 7, 26, 97][n - 1]
        assert subgroups == hall[n]
    assert hall[1:] == [1, 3, 13, 71, 461]


def test_small_cores_census():
    """At rank 2 the connected cores on at most 3 vertices fall into 92
    classes, 12, 44, 29 and 7 of reduced rank 0 to 3, and the key of the
    canonical refinement splits them exactly as the minimum over all start
    vertices of the complete BFS code does."""
    cores = all_cores(2, 3)
    assert len(cores) == 92
    ranks = [reduced_rank(g) for g in cores]
    assert [ranks.count(r) for r in range(4)] == [12, 44, 29, 7]
    by_oracle = all_cores(2, 3, key=canonical_key_oracle)
    assert len(by_oracle) == 92
    assert {canonical_key(g) for g in by_oracle} == {canonical_key(g) for g in cores}


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


@pytest.mark.parametrize("rank", [2, 3, 4, 7, 26, 200])
def test_random_reduced_word_matches_oracle_stream(rank):
    """Same words and the same generator state after every draw as the
    follower-list draw, so every seeded report keeps its bytes."""
    alphabet = Alphabet(rank)
    ours, theirs = random.Random(rank), random.Random(rank)
    for _ in range(3):
        for length in (0, 1, 2, 12, 40):
            w = random_reduced_word(ours, alphabet, length)
            assert w == random_reduced_word_oracle(theirs, alphabet, length)
            assert len(w) == length
            assert ours.getstate() == theirs.getstate()


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


def _json_without(key):
    return {k: v for k, v in GOOD_JSON.items() if k != key}


@pytest.mark.parametrize(
    "data",
    [
        {**GOOD_JSON, "edges": [[0, 1.0, 1], [1, 0, 2]]},
        {**GOOD_JSON, "rank": 2.5},
        {**GOOD_JSON, "basepoint": 0.0},
        {**GOOD_JSON, "edges": [[0, 1, True], [1, 0, 2]]},
        {**GOOD_JSON, "vertices": [0, 1.0]},
        {**GOOD_JSON, "edges": [[0, 1, 1, 1], [1, 0, 2]]},
        _json_without("rank"),
        _json_without("edges"),
        {**GOOD_JSON, "vertices": 5},
        {**GOOD_JSON, "edges": None},
        [1, 2],
        {**GOOD_JSON, "rank": 1, "edges": [[0, 1, 1], [1, 0, 1]]},
    ],
    ids=["float-edge-entry", "float-rank", "float-basepoint", "bool-label", "float-vertex",
         "four-entry-edge", "missing-rank", "missing-edges", "int-vertices", "null-edges",
         "non-object", "rank-1"],
)
def test_graph_from_json_dict_rejects_non_integers(data):
    assert graph_from_json_dict(GOOD_JSON).edges == ((0, 1, 1), (1, 0, 2))
    with pytest.raises(ValueError):
        graph_from_json_dict(data)


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


def generator_sets():
    """2,000 seeded generator sets at ranks 2 to 4.  Later generators repeat,
    invert or multiply earlier ones (so they read all the way into the graph
    built so far), or are proper powers or conjugates w * r * w^-1 with |w|
    up to 300."""
    rng = random.Random(14)
    for i in range(2000):
        al = Alphabet(2 + i % 3)
        words = []
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            if words and roll < 0.3:
                u, v = rng.choice(words), rng.choice(words)
                words.append(rng.choice([u, invert(u), concat(u, v), concat(u, invert(v))]))
            elif roll < 0.4:
                words.append(random_reduced_word(rng, al, rng.randint(1, 4)) * rng.randint(2, 4))
            elif roll < 0.7:
                w = random_reduced_word(rng, al, rng.randint(0, 300 if i % 200 == 0 else 12))
                words.append(concat(w, random_reduced_word(rng, al, rng.randint(1, 6)), invert(w)))
            else:
                words.append(random_reduced_word(rng, al, rng.randint(1, 8)))
        yield al, words


def test_from_generators_matches_wedge_fold_oracle(monkeypatch):
    rng = random.Random(15)
    built = []
    for al, words in generator_sets():
        try:
            h = from_generators(words, al)
        except TrivialSubgroupError:
            with pytest.raises(TrivialSubgroupError):
                from_generators_oracle(words, al)
            continue
        _same_graph(h, from_generators_oracle(words, al))
        seed = rng.random()
        built.append((h, commensurator(h), random_finite_index_cover(h, 3, random.Random(seed)),
                      seed))
    assert len(built) >= 1900
    monkeypatch.setattr(stallings, "_attach_tail", attach_tail_oracle)
    for h, (comm, degree), cover, seed in built:
        old_comm, old_degree = commensurator(h)
        _same_graph(comm, old_comm)
        assert degree == old_degree
        _same_graph(cover, random_finite_index_cover(h, 3, random.Random(seed)))


def based_graphs_with_tails():
    """1,000 seeded folded based graphs at ranks 2 and 3.  The generators
    share a random conjugator, so most graphs have a basepoint arc, and
    every third graph gets extra hanging arcs folded onto it."""
    rng = random.Random(72)
    graphs = []
    for i in range(1000):
        al = Alphabet(2 + i % 2)
        w = random_reduced_word(rng, al, rng.randint(1, 4))
        h = from_generators(
            [
                concat(w, random_reduced_word(rng, al, rng.randint(1, 5)), invert(w))
                for _ in range(rng.randint(1, 3))
            ],
            al,
        )
        if i % 3 == 0:
            edges, n = list(h.edges), h.num_vertices
            for _ in range(rng.randint(1, 3)):
                v = rng.randrange(n)
                for x in random_reduced_word(rng, al, rng.randint(1, 4)):
                    edges.append((v, n, x) if x > 0 else (n, v, -x))
                    v, n = n, n + 1
            h = fold(LabeledGraph(al.rank, n, edges, basepoint=h.basepoint))
        graphs.append(h)
    return graphs


def test_core_and_tail_matches_oracle():
    with_tail = with_hanging = 0
    for h in based_graphs_with_tails():
        cg, attach, tail = _core_and_tail(h, "test")
        old_cg, old_attach, old_tail = core_and_tail_oracle(h)
        _same_graph(cg, old_cg)
        assert (attach, tail) == (old_attach, old_tail)
        with_tail += bool(tail)
        with_hanging += h.num_vertices - cg.num_vertices > len(tail)
    assert with_tail >= 500
    assert with_hanging >= 200


def test_spanning_tree_matches_oracle():
    graphs = [
        h for rank in (2, 3, 4)
        for h in subgroup_corpus(random.Random(80 + rank), Alphabet(rank), 150)
    ]
    graphs += based_graphs_with_tails()[:300]
    for h in graphs:
        assert_tree_matches_oracle(h, h.basepoint)
        assert_tree_matches_oracle(h, h.num_vertices - 1)


def finite_index_pairs():
    """360 seeded (h, k) pairs at ranks 2 and 3: a finite-index cover
    against its base, the base against its cover, and the base against a
    random subgroup; the last two are mostly not subgroups."""
    rng = random.Random(81)
    pairs = []
    for rank in (2, 3):
        al = Alphabet(rank)
        for h in subgroup_corpus(rng, al, 60):
            cover = random_finite_index_cover(h, rng.randint(2, 4), rng)
            pairs += [(cover, h), (h, cover), (h, random_subgroup(rng, al))]
    return pairs


def test_finite_index_map_matches_oracle():
    """The map read along the spanning tree against the earlier BFS map:
    the same refusals and the same index.  Which of the two messages a
    refusal carries depends on which bad edge a walk meets first."""
    refused = infinite = 0
    for h, k in finite_index_pairs():
        assert_tree_matches_oracle(h, h.basepoint)
        try:
            expected = finite_index_oracle(h, k)
        except NotSubgroupError:
            with pytest.raises(NotSubgroupError):
                finite_index(h, k)
            refused += 1
            continue
        assert finite_index(h, k) == expected
        infinite += expected is None
    assert refused >= 150
    assert infinite >= 5


def test_rebased_copy_shares_the_tables_and_refuses_as_the_constructor():
    """`_rebased` gives the graph at another basepoint, or none, as a copy
    that shares the edges and every cached table; it is the graph itself
    when the basepoint stays, and it refuses a basepoint with the
    constructor's message."""
    for g in (sub("aa", "b"), sub("ab", "bA"), core(sub("abab")), LabeledGraph(2, 0, [])):
        g.moves(), g.component_ids()
        for bp in (None, *range(g.num_vertices)):
            copy = g._rebased(bp)
            assert copy.basepoint == bp and (copy is g) == (bp == g.basepoint)
            assert copy.edges is g.edges and copy.moves() is g.moves()
            assert copy._places is g._places and copy._components is g._components
        for bp in (g.num_vertices, -1, True, 0.0):
            with pytest.raises(ValueError) as built:
                LabeledGraph(g.rank, g.num_vertices, g.edges, basepoint=bp)
            with pytest.raises(ValueError) as rebased:
                g._rebased(bp)
            assert str(rebased.value) == str(built.value)


def test_induced_subgraph_reads_a_repeated_vertex_once():
    h = sub("ab", "bA")
    g, renum = stallings.induced_subgraph(h, [1, 0, 1])
    assert (g.num_vertices, g.edges, renum) == (h.num_vertices, h.edges, {0: 0, 1: 1})


def _index_or_refusal(fn, h, k):
    try:
        return fn(h, k)
    except NotSubgroupError as exc:
        return str(exc)


def test_finite_index_one_pass_matches_both_oracles():
    """The map built and checked in one pass over the departures against
    the earlier two passes (tree steps, then every edge) and the BFS
    oracle: the same index, or a refusal by all three.  The seeded pairs
    come as a cover against its base, the base against its cover and the
    base against a random subgroup; the census pairs are every pair of
    rank-2 cores on at most 2 vertices, based at each vertex, so loops
    and parallel edges are met.  On covers, self-pairs and reversed pairs
    the message is the two-pass oracle's too.  Against a random subgroup
    or a census pair, a graph can have a departure with no image and
    another with two, and each walk names the first it meets."""
    seeded = finite_index_pairs()
    families = ["cover", "reversed", "random"] * (len(seeded) // 3)
    pairs = list(zip(families, seeded))
    pairs += [("self", (h, h)) for _, (h, _) in pairs[::3]]
    census = [g._rebased(v) for g in all_cores(2, 2) for v in range(g.num_vertices)]
    pairs += [("census", (h, k)) for h in census for k in census]
    counts = Counter()
    for family, (h, k) in pairs:
        got = _index_or_refusal(finite_index, h, k)
        two_pass = _index_or_refusal(finite_index_two_pass_oracle, h, k)
        bfs = _index_or_refusal(finite_index_oracle, h, k)
        if family in ("cover", "reversed", "self") or not isinstance(got, str):
            assert got == two_pass == bfs, (family, h.edges, k.edges)
        else:
            assert isinstance(two_pass, str) and isinstance(bfs, str)
        counts[family, "refused" if isinstance(got, str) else "index"] += 1
    assert counts["census", "refused"] >= 100 and counts["census", "index"] >= 50
    assert counts["reversed", "refused"] >= 50 and counts["random", "refused"] >= 50


def _essential_component_subgroups(h, k):
    fp = fiber_product(h, k)
    return [component_subgroup(fp, c) for c in fp.components() if not c.contractible]


def _every_component_subgroup(h, k):
    fp = fiber_product(h, k)
    return [component_subgroup(fp, c) for c in fp.components()]


def test_tree_walks_stay_linear_in_memory():
    """Keeping a path word per vertex costs memory quadratic in the length
    of a basepoint arc or a cycle: at n = 4000 these calls peaked at 61.7,
    61.6, 31.2, 65.6 and 64.7 MiB that way, and at 2.5, 2.4, 0.4, 4.5 and
    3.6 MiB reading paths off the parent table."""
    n = 4000
    conjugate = from_generators([(1,) * n + (2,) + (-1,) * n], AL2)
    long_cycle = from_generators([(1,) * n + (2,), (2, 1, 2)], AL2)
    h = from_generators([(1,) * n + (2,) + (-1,) * n, (2, 1, 2)], AL2)
    k = from_generators([(2, 2), (1, 2, -1), (1, 1)], AL2)
    calls = {
        "commensurator": lambda: commensurator(conjugate),
        "random_finite_index_cover": lambda: random_finite_index_cover(
            conjugate, 2, random.Random(1)
        ),
        "subgroup_generators": lambda: subgroup_generators(long_cycle),
        "intersection_number_cosets": lambda: intersection_number_cosets(h, k),
        "component_subgroup": lambda: _essential_component_subgroups(h, k),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (name, peak)


def _first_component_subgroup(g):
    fp = fiber_product(g, g)
    return component_subgroup(fp, fp.components()[0])


UNBASED_CALLS = {
    "contains": lambda g: contains(g, (1,)),
    "subgroup_generators": subgroup_generators,
    "canonical_key_based": canonical_key_based,
    "finite_index": lambda g: finite_index(g, g),
    "commensurator": commensurator,
    "random_finite_index_cover": lambda g: random_finite_index_cover(g, 2, random.Random(0)),
    "intersection_number_cosets": lambda g: intersection_number_cosets(g, g),
    "component_subgroup": _first_component_subgroup,
}


@pytest.mark.parametrize("name", sorted(UNBASED_CALLS))
def test_based_only_functions_refuse_unbased_graphs(name):
    unbased = core(from_generators([(1, 1), (2,)], Alphabet(2)))
    assert unbased.basepoint is None
    with pytest.raises(ValueError, match=f"{name} needs a based graph"):
        UNBASED_CALLS[name](unbased)
    if name == "finite_index":
        based = from_generators([(1, 1), (2,)], Alphabet(2))
        with pytest.raises(ValueError, match="finite_index needs a based graph"):
            finite_index(based, unbased)


UNFOLDED = {
    # a doubled a-loop: the first departure per label reads it as the rose
    "doubled-loop": LabeledGraph(2, 1, [(0, 0, 1), (0, 0, 1), (0, 0, 2)], basepoint=0),
    # two a-departures at 0: the first one is the loop, so 1 looks unreachable
    "two-a-departures": LabeledGraph(
        2, 2, [(0, 1, 1), (0, 0, 1), (1, 1, 2), (0, 0, 2)], basepoint=0
    ),
}
FOLDED_ONLY_CALLS = {
    "canonical_key": canonical_key,
    "canonical_key_based": canonical_key_based,
    "minimal_covering_quotient": minimal_covering_quotient,
    "counting_current": counting_current,
}


@pytest.mark.parametrize("graph", sorted(UNFOLDED))
@pytest.mark.parametrize("name", sorted(FOLDED_ONLY_CALLS))
def test_folded_only_functions_refuse_unfolded_graphs(name, graph):
    assert UNFOLDED[graph].is_connected() and not UNFOLDED[graph].is_folded()
    with pytest.raises(ValueError, match="needs a folded graph"):
        FOLDED_ONLY_CALLS[name](UNFOLDED[graph])


# two a-edges, 0 -> 0 and 0 -> 1, so the first a-departure at 0 hides one
UNFOLDED_CORE = LabeledGraph(2, 2, [(0, 0, 1), (0, 1, 1), (1, 1, 2), (0, 0, 2), (1, 0, 2)])
# based at 0 it generates F_2, which the folded rose would report
UNFOLDED_BASED = UNFOLDED["two-a-departures"]
FOLDED_READERS = {
    "neighborhood_tree": lambda: neighborhood_tree(UNFOLDED_CORE, 0, 1),
    "neighborhood_profile": lambda: neighborhood_profile(UNFOLDED_CORE, 2),
    "occurrence_count": lambda: occurrence_count(FiniteSubtree.edge(1), UNFOLDED_CORE),
    "subgroup_generators": lambda: subgroup_generators(UNFOLDED_BASED),
    "contains": lambda: contains(UNFOLDED_BASED, (2,)),
    "finite_index": lambda: finite_index(
        UNFOLDED_BASED, from_generators([(1,), (2,)], Alphabet(2))
    ),
    "random_finite_index_cover": lambda: random_finite_index_cover(
        UNFOLDED_BASED, 2, random.Random(0)
    ),
    "commensurator": lambda: commensurator(UNFOLDED_BASED),
}


@pytest.mark.parametrize("name", sorted(FOLDED_READERS))
def test_folded_readers_refuse_unfolded_graphs(name):
    """Each reader follows one departure per signed label; on an unfolded
    graph that silently drops edges, so it must refuse instead."""
    with pytest.raises(ValueError, match="needs a folded graph"):
        FOLDED_READERS[name]()


# a based tree, i.e. the trivial subgroup, and a basepoint cut off from its loops
TREE = LabeledGraph(2, 2, [(0, 1, 1)], basepoint=0)
CUT_OFF = LabeledGraph(2, 2, [(1, 1, 1), (1, 1, 2)], basepoint=0)
# a loop at the basepoint, and another loop out of its reach
SPLIT = LabeledGraph(2, 2, [(0, 0, 1), (1, 1, 2)], basepoint=0)
IDENTITY = Endomorphism([(1,), (2,)], AL2)
ROSE = LabeledGraph(2, 1, [(0, 0, 1), (0, 0, 2)], basepoint=0)
# the based rose beside an isolated vertex
BESIDE = LabeledGraph(2, 2, [(0, 0, 1), (0, 0, 2)], basepoint=0)
# an a-loop beside an isolated vertex, and a b-loop: their product has no edge
LOOP_BESIDE = LabeledGraph(2, 2, [(0, 0, 1)], basepoint=0)
B_LOOP = LabeledGraph(2, 1, [(0, 0, 2)], basepoint=0)
# two roses, which one rose would cover twice if they were one graph
TWO_ROSES = LabeledGraph(2, 2, [(0, 0, 1), (0, 0, 2), (1, 1, 1), (1, 1, 2)])
NON_SUBGROUP_CALLS = {
    "commensurator-tree": (lambda: commensurator(TREE), TrivialSubgroupError),
    "commensurator-cut-off": (lambda: commensurator(CUT_OFF), NotConnectedError),
    "cover-tree": (
        lambda: random_finite_index_cover(TREE, 2, random.Random(0)), TrivialSubgroupError
    ),
    "cover-cut-off": (
        lambda: random_finite_index_cover(CUT_OFF, 2, random.Random(0)), NotConnectedError
    ),
    "finite-index-tree-in-rose": (lambda: finite_index(TREE, ROSE), None),
    "finite-index-tree-in-tree": (lambda: finite_index(TREE, TREE), 1),
    "finite-index-cut-off-in-rose": (lambda: finite_index(CUT_OFF, ROSE), NotConnectedError),
    "finite-index-rose-in-cut-off": (lambda: finite_index(ROSE, CUT_OFF), NotConnectedError),
    "generators-cut-off": (lambda: subgroup_generators(CUT_OFF), NotConnectedError),
    "generators-split": (lambda: subgroup_generators(SPLIT), NotConnectedError),
    "act-on-cut-off": (lambda: act_on_subgroup(IDENTITY, CUT_OFF), NotConnectedError),
    "act-on-split": (lambda: act_on_subgroup(IDENTITY, SPLIT), NotConnectedError),
    "quotient-of-nothing": (
        lambda: minimal_covering_quotient(LabeledGraph(2, 0, [])), EmptyCoreError
    ),
    "core-based-tree": (lambda: core_based(TREE), EmptyCoreError),
    "component-subgroup-beside-a-vertex": (
        lambda: _every_component_subgroup(BESIDE, ROSE), NotConnectedError
    ),
    "cosets-beside-a-vertex": (
        lambda: intersection_number_cosets(BESIDE, ROSE), NotConnectedError
    ),
    "cosets-split": (lambda: intersection_number_cosets(SPLIT, ROSE), NotConnectedError),
    "cosets-no-essential-component": (
        lambda: intersection_number_cosets(LOOP_BESIDE, B_LOOP), NotConnectedError
    ),
    "quotient-of-two-roses": (lambda: minimal_covering_quotient(TWO_ROSES), NotConnectedError),
}


@pytest.mark.parametrize("name", sorted(NON_SUBGROUP_CALLS))
def test_graphs_without_a_nontrivial_subgroup_get_an_input_answer(name):
    """The trivial subgroup has a value where one is defined (index 1 in
    itself, infinite index in anything larger); otherwise these are input
    errors (ValueError, exit 1), never an internal bug or a ZeroDivisionError."""
    call, expected = NON_SUBGROUP_CALLS[name]
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected


DISCONNECTED = {"beside": BESIDE, "split": SPLIT}
# every walk from a basepoint, with the disconnected graph in each based slot
BASED_WALKS = {
    "subgroup_generators": [subgroup_generators],
    "commensurator": [commensurator],
    "random_finite_index_cover": [lambda g: random_finite_index_cover(g, 2, random.Random(0))],
    "finite_index": [lambda g: finite_index(g, ROSE), lambda g: finite_index(ROSE, g)],
    "component_subgroup": [
        lambda g: _every_component_subgroup(g, ROSE),
        lambda g: _every_component_subgroup(ROSE, g),
    ],
    "intersection_number_cosets": [
        lambda g: intersection_number_cosets(g, ROSE),
        lambda g: intersection_number_cosets(ROSE, g),
    ],
}


@pytest.mark.parametrize("graph", sorted(DISCONNECTED))
@pytest.mark.parametrize("name", sorted(BASED_WALKS))
def test_based_walks_refuse_disconnected_graphs(name, graph):
    """Each walk from a basepoint is refused by `_based_tree`, in the name
    of the public function that walks."""
    for call in BASED_WALKS[name]:
        with pytest.raises(NotConnectedError, match=f"{name} needs a connected based graph"):
            call(DISCONNECTED[graph])


def random_multigraphs():
    """400 seeded labeled multigraphs on 1..14 vertices: loops, parallel
    edges, isolated vertices and several components all occur."""
    rng = random.Random(73)
    graphs = []
    for _ in range(400):
        n = rng.randint(1, 14)
        edges = [
            (rng.randrange(n), rng.randrange(n), rng.randint(1, 3))
            for _ in range(rng.randint(0, 2 * n))
        ]
        graphs.append(LabeledGraph(3, n, edges))
    return graphs


def test_prune_matches_oracle():
    cases = [(g, None) for g in random_multigraphs()]
    cases += [(g, g.num_vertices - 1) for g in random_multigraphs()]
    cases += [(h, h.basepoint) for h in based_graphs_with_tails()[:300]]
    pruned = kept = 0
    for g, keep in cases:
        survivors = _prune(g.num_vertices, g.edges, keep)
        assert survivors == core_vertices_oracle(g, keep)
        pruned += 0 < len(survivors) < g.num_vertices
        ends_at_keep = sum((o == keep) + (t == keep) for o, t, _ in g.edges)
        kept += keep is not None and keep in survivors and ends_at_keep < 2
    assert pruned >= 200
    assert kept >= 100


def test_component_ids_is_a_memoized_union_find():
    for g in random_multigraphs():
        ids = g.component_ids()
        assert isinstance(ids, tuple)
        uf = UnionFind(g.num_vertices)
        for o, t, _ in g.edges:
            uf.union(o, t)
        assert ids == tuple(uf.find(v) for v in range(g.num_vertices))
        assert g.component_ids() is ids


def test_union_edges_matches_union_edge_by_edge():
    """The batch union and `union` called per edge end in the same roots,
    and the batch keeps every parent at or below its vertex: on the seeded
    multigraphs (loops, parallel edges, isolated vertices) in sorted and
    shuffled order, on hand cases down to n = 0, and on product edge lists."""
    rng = random.Random(47)
    cases = [(0, []), (1, [(0, 0, 1)] * 3), (4, [(3, 3, 1), (3, 1, 2), (3, 1, 2), (1, 3, 1)])]
    for g in random_multigraphs():
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        cases += [(g.num_vertices, g.edges), (g.num_vertices, shuffled)]
    for alphabet in (AL2, Alphabet(3)):
        for _ in range(20):
            h, k = random_subgroup(rng, alphabet), random_subgroup(rng, alphabet)
            cases.append((h.num_vertices * k.num_vertices, _product_edges(h, k)))
    for n, edges in cases:
        batch, single = UnionFind(n), UnionFind(n)
        batch.union_edges(edges)
        for o, t, _ in edges:
            single.union(o, t)
        assert all(p <= v for v, p in enumerate(batch.parent))
        assert batch.roots() == single.roots()


def test_is_folded_and_moves_match_the_germ_list_oracle():
    raw = random_multigraphs()
    for g in raw + [fold(g) for g in raw]:
        assert g.is_folded() == is_folded_oracle(g)
        if g.is_folded():
            # a row's slots follow `signed_letters()`, and `_places` holds
            # the slot of each departure in edge order
            order = Alphabet(g.rank).signed_letters()
            first = [[None] * (2 * g.rank) for _ in range(g.num_vertices)]
            for row, germs in zip(first, germ_lists_oracle(g)):
                for s, ts in germs.items():
                    row[order.index(s)] = ts[0]
            assert g.moves() == first
            assert g.moves() is g.moves()
            assert g._places == [list(map(order.index, germs)) for germs in germ_lists_oracle(g)]
        else:
            with pytest.raises(ValueError, match="needs a folded graph"):
                g.moves()
    folded_raw = sum(g.is_folded() for g in raw)
    assert 50 <= folded_raw <= len(raw) - 200


def test_is_folded_memo_keeps_a_false_answer():
    unfolded = wedge([(1, 2), (1, -2)], 2)
    assert unfolded.is_folded() is False
    assert unfolded.is_folded() is False
    folded = fold(unfolded)
    assert folded.is_folded() is True
    assert folded.is_folded() is True


def test_rank_reuses_the_connectivity_of_from_generators(monkeypatch):
    built = []

    class CountingUnionFind(UnionFind):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr(stallings, "UnionFind", CountingUnionFind)
    h = sub("aab", "bAb", "abab")
    assert built  # fold and the connectivity check of check_core_graph
    built.clear()
    assert rank(h) == 3
    assert reduced_rank(h) == 2
    assert check_core_graph(h) is h
    assert built == []


def test_core_based_returns_a_graph_with_nothing_to_prune():
    h = sub("aab", "bAb")
    assert core_based(h) is h
    tailed = sub("abaBA")
    assert core_based(tailed) is tailed  # the tail ends at the kept basepoint
    hanging = LabeledGraph(2, 3, [(0, 0, 1), (0, 1, 2), (1, 2, 1)], basepoint=0)
    pruned = core_based(hanging)
    assert (pruned.num_vertices, pruned.edges) == (1, ((0, 0, 1),))


def conjugated_relators(n=3000, count=8):
    """`count` generators w * r_i * w^-1 with |w| = n that stay reduced."""
    rng = random.Random(16)
    w = random_reduced_word(rng, AL2, n)
    words = []
    while len(words) < count:
        r = random_reduced_word(rng, AL2, rng.randint(3, 8))
        if r[0] != -w[-1] and r[-1] != w[-1]:
            words.append(w + r + invert(w))
    return w, words


def test_from_generators_makes_a_vertex_per_unread_letter(monkeypatch):
    # a wedge of the eight generators has about 48,000 vertices
    built = []

    class CountingUnionFind(UnionFind):
        def __init__(self, n):
            super().__init__(n)
            built.append(self)

    monkeypatch.setattr(stallings, "UnionFind", CountingUnionFind)
    w, words = conjugated_relators()
    from_generators(words, AL2)
    assert len(built[0].parent) <= len(w) + sum(len(g) - 2 * len(w) for g in words) + 1
    built.clear()
    n = 4000
    h = from_generators([(1,) * n + (2,) + (-1,) * n], AL2)
    assert len(built[0].parent) == h.num_vertices == n + 1


def test_core_of_long_conjugates_within_budget(acceptance, tmp_path, capsys):
    _, words = conjugated_relators()
    path = tmp_path / "conjugates.txt"
    path.write_text("".join(format_word(g, AL2) + "\n" for g in words), encoding="utf-8")
    label = "subcur core on 8 conjugates by a 3000-letter word within 1 s"
    with acceptance(16, label, budget=1.0):
        assert cli.main(["core", str(path)]) == 0
    assert capsys.readouterr().out
