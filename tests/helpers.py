"""Shared corpus builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's traversal helpers and
work from raw edge lists, so agreement with the package is evidence, not
circularity.

`fold_oracle` and `covering_quotient_oracle` are the package's earlier
`fold` (re-sort the edge set until nothing merges) and
`minimal_covering_quotient` (greedy pair closures), kept verbatim as
differential oracles for the worklist fold and the stable-partition
quotient.  The greedy search uses `_wl_classes` only to skip pairs that no
covering can identify.  `functional_V_oracle` is the earlier `functional_V`,
the cylinder sum over every grade-1 round graph of the rank, kept as the
oracle for the sum over observed neighborhoods.
"""

import random
from fractions import Fraction

from subsetcurrents import (
    Alphabet,
    LabeledGraph,
    MismatchBugError,
    NotConnectedError,
    RationalCurrent,
    counting_current,
    enumerate_round_graphs,
    eval_cylinder,
    from_generators,
    normalize,
    random_subgroup,
)
from subsetcurrents.stallings import UnionFind, _wl_classes


def brute_force_occurrences(tree, graph) -> int:
    """Count occurrence roots of a finite subtree by exhaustive search.

    For each candidate root vertex, every tree edge (w, w + s) is matched
    against the raw edge list in both orientations, branching over all
    candidates; a root counts when at least one full assignment exists in
    which every interior tree vertex (degree above 1) lands on a graph
    vertex of equal degree.  No folding or germ bookkeeping is assumed.
    """
    edges = list(graph.edges)
    degree = [0] * graph.num_vertices
    for o, t, _ in edges:
        degree[o] += 1
        degree[t] += 1

    words = sorted(tree.words, key=lambda w: (len(w), w))
    children = {w: [] for w in words}
    tree_degree = {w: (1 if w else 0) for w in words}
    for w in words:
        if w:
            children[w[:-1]].append(w)
            tree_degree[w[:-1]] += 1

    def targets(v, s):
        out = []
        for o, t, lab in edges:
            if o == v and lab == s:
                out.append(t)
            if t == v and lab == -s:
                out.append(o)
        return out

    def extend(image, pending) -> bool:
        if not pending:
            return all(
                degree[image[w]] == tree_degree[w]
                for w in words
                if tree_degree[w] > 1
            )
        w, rest = pending[0], pending[1:]
        for tgt in targets(image[w[:-1]], w[-1]):
            image[w] = tgt
            if extend(image, rest):
                return True
        image.pop(w, None)
        return False

    count = 0
    for v in range(graph.num_vertices):
        if extend({(): v}, words[1:]):
            count += 1
    return count


def random_tree_words(rng: random.Random, alphabet: Alphabet, depth: int, grows: int):
    """A random prefix-closed set of reduced words of length <= depth."""
    words = {()}
    for _ in range(grows):
        base = rng.choice(sorted(words, key=lambda w: (len(w), w)))
        if len(base) >= depth:
            continue
        options = [
            s for s in alphabet.signed_letters() if not base or s != -base[-1]
        ]
        words.add(base + (rng.choice(options),))
    return words


def subgroup_corpus(rng: random.Random, alphabet: Alphabet, size: int):
    """Seeded list of nontrivial subgroups, small generating data."""
    return [
        random_subgroup(rng, alphabet, max_gens=3, max_len=6) for _ in range(size)
    ]


def special_corpus(alphabet: Alphabet):
    """Hand-picked subgroups that exercise edge cases of every functional."""
    al = alphabet
    gens = [[(i,) for i in al.letters()]]  # the whole group
    gens.append([(1,)])  # cyclic
    gens.append([(1, 1)])  # cyclic, proper power
    gens.append([(1, 2)])
    gens.append([(1, 1), (2,)])
    gens.append([(1,), (2, 2)])
    gens.append([(1, 1), (2, 2)])
    gens.append([(1, 2, -1)])  # conjugate of a generator
    gens.append([(1, 1), (2,), (1, 2, -1)])  # index two in the whole group
    return [from_generators(g, al) for g in gens]


def random_current(
    rng: random.Random, alphabet: Alphabet, max_terms: int = 3
) -> RationalCurrent:
    """Seeded rational current with 1..max_terms subgroup terms."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        terms.append((coeff, random_subgroup(rng, alphabet).graph))
    return normalize(terms)


def current_pair_corpus(rng: random.Random, alphabet: Alphabet, size: int):
    return [
        (random_current(rng, alphabet), random_current(rng, alphabet))
        for _ in range(size)
    ]


def counting(gens, alphabet) -> RationalCurrent:
    return counting_current(from_generators(gens, alphabet))


def based(gens, alphabet) -> LabeledGraph:
    return from_generators(gens, alphabet)


def wedge(words, rank: int) -> LabeledGraph:
    """Unfolded wedge of one loop per nonempty word, based at vertex 0."""
    edges = []
    n = 1
    for w in filter(None, words):
        path = [0] + list(range(n, n + len(w) - 1)) + [0]
        n += len(w) - 1
        for o, t, x in zip(path, path[1:], w):
            edges.append((o, t, x) if x > 0 else (t, o, -x))
    return LabeledGraph(rank, n, edges, basepoint=0)


def fold_oracle(graph: LabeledGraph) -> LabeledGraph:
    """Identify same-label departures until no vertex has two of them.

    The result is independent of the processing order; duplicate parallel
    edges collapse along the way.
    """
    uf = UnionFind(graph.num_vertices)
    edges = [tuple(e) for e in graph.edges]
    while True:
        edges = sorted({(uf.find(o), uf.find(t), lab) for o, t, lab in edges})
        target: dict[tuple[int, int], int] = {}
        changed = False
        for o, t, lab in edges:
            for v, s, w in ((o, lab, t), (t, -lab, o)):
                prev = target.get((v, s))
                if prev is None:
                    target[(v, s)] = w
                elif uf.find(prev) != uf.find(w):
                    uf.union(prev, w)
                    changed = True
        if not changed:
            break
    roots = sorted({uf.find(v) for v in range(graph.num_vertices)})
    renum = {r: i for i, r in enumerate(roots)}
    new_edges = {(renum[uf.find(o)], renum[uf.find(t)], lab) for o, t, lab in edges}
    bp = None if graph.basepoint is None else renum[uf.find(graph.basepoint)]
    return LabeledGraph(graph.rank, len(roots), new_edges, basepoint=bp)


def _closure_partition(graph: LabeledGraph, v: int, w: int) -> UnionFind:
    """Finest vertex identification containing v ~ w with a folded quotient."""
    uf = UnionFind(graph.num_vertices)
    germ: dict[int, dict[int, int]] = {
        u: {s: lst[0][0] for s, lst in graph.germs(u).items()}
        for u in range(graph.num_vertices)
    }
    stack = [(v, w)]
    while stack:
        a, b = stack.pop()
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            continue
        uf.union(ra, rb)
        root = uf.find(ra)
        other = rb if root == ra else ra
        merged = germ[root]
        for s, t in germ.pop(other).items():
            if s in merged:
                stack.append((merged[s], t))
            else:
                merged[s] = t
    return uf


def _quotient_if_covering(
    graph: LabeledGraph, uf: UnionFind
) -> tuple[LabeledGraph, list[int]] | None:
    """Build the quotient when the partition is a covering, else None.

    The quotient map is locally bijective exactly when all members of each
    class carry the same set of signed departures.
    """
    roots = {}
    for v in range(graph.num_vertices):
        roots.setdefault(uf.find(v), []).append(v)
    for members in roots.values():
        sig = graph.germ_labels(members[0])
        if any(graph.germ_labels(u) != sig for u in members[1:]):
            return None
    renum = {r: i for i, r in enumerate(sorted(roots))}
    vmap = [renum[uf.find(v)] for v in range(graph.num_vertices)]
    edges = {(vmap[o], vmap[t], lab) for o, t, lab in graph.edges}
    quotient = LabeledGraph(graph.rank, len(roots), edges)
    if not quotient.is_folded():
        raise MismatchBugError("closure produced an unfolded quotient")
    return quotient, vmap


def covering_quotient_oracle(graph: LabeledGraph) -> tuple[LabeledGraph, int, list[int]]:
    """Smallest folded graph covered by the input, with degree and vertex map.

    Greedy is exhaustive here: whenever a nontrivial covering quotient
    exists, the fold-closure of some fiber pair is itself a valid covering
    quotient, so scanning all vertex pairs cannot get stuck early.  Each
    accepted quotient strictly shrinks the graph, so this terminates.
    """
    if not graph.is_connected():
        raise NotConnectedError("covering quotients need a connected graph")
    current = graph
    total_map = list(range(graph.num_vertices))
    while current.num_vertices > 1:
        colors = _wl_classes(current)
        found = None
        for v in range(current.num_vertices):
            for w in range(v + 1, current.num_vertices):
                if colors[v] != colors[w]:
                    continue
                uf = _closure_partition(current, v, w)
                built = _quotient_if_covering(current, uf)
                if built is not None:
                    found = built
                    break
            if found:
                break
        if found is None:
            break
        quotient, vmap = found
        total_map = [vmap[c] for c in total_map]
        current = quotient
    if graph.num_vertices % current.num_vertices:
        raise MismatchBugError("covering degree is not integral")
    return current, graph.num_vertices // current.num_vertices, total_map


def functional_V_oracle(mu: RationalCurrent) -> Fraction:
    """Sum of the cylinder values of all grade-1 round graphs of the rank."""
    if mu.is_zero:
        return Fraction(0)
    alphabet = Alphabet(mu.rank)
    return sum(
        (eval_cylinder(mu, t) for t in enumerate_round_graphs(1, alphabet)),
        Fraction(0),
    )
