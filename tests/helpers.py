"""Shared corpus builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's traversal helpers and
work from raw edge lists, so agreement with the package is evidence, not
circularity.

`fold_oracle` and `covering_quotient_oracle` are the package's earlier
`fold` (re-sort the edge set until nothing merges) and
`minimal_covering_quotient` (greedy pair closures), kept verbatim as
differential oracles for the worklist fold and the stable-partition
quotient.  The greedy search uses `_wl_classes`, the package's earlier
round-by-round colour refinement, only to skip pairs that no covering can
identify; it is also the oracle for the Hopcroft splitting of
`_stable_classes`.  `functional_V_oracle` is the earlier `functional_V`,
the cylinder sum over every grade-1 round graph of the rank, kept as the
oracle for the sum over observed neighborhoods.  `component_subgroup_oracle`
is the earlier `component_subgroup`, which rebuilds both basepoint trees
and scans every product edge for each component, kept as the oracle for
the cached paths and the per-component edge buckets.
`classify_components_oracle` is the earlier `classify_components`, which
kept an ascending vertex list per component, kept as the oracle for the
counts read from `component_ids()` and for the members that
`FiberProduct._component_graph` takes from its edge bucket.
`component_ids_oracle` labels components by BFS over an adjacency list,
with no union-find, as the oracle for `component_ids()` and the one
ascending pass of `UnionFind.roots`.  `occurrence_count_oracle` is the
earlier `occurrence_count`, which read a tree into a dict keyed by its
words at every vertex (`_read_tree`, which `_component_matches_tree`
also uses), kept as the oracle for reading the tree by position.

`truncated_cyclic_cover(h, n)` builds the subgroups of acceptance 15: n
sheets of a based core, chained through one edge outside the spanning tree,
so that (1/n) times its counting current tends to that of the core.

`c_hat_via_round_graphs` is the package's earlier cross-check of the
contractible correction, which counts the components of one tree shape by
two routes, component isomorphism and vertex-pair neighborhood
intersections, and raises on disagreement; it is the reference for
acceptance 5 and the round-graph tests.

`c_hat_oracle` is the earlier `c_hat`, which summed the contractible
flags of `fiber_product(g1, g2).components()` for every pair of terms,
kept as the oracle for the union pass over the product edges that counts
trees without a product graph or component reports.
`representative_oracle` is the earlier double-coset representative of
`component_subgroup`: both full tree paths read with `_tree_path`, their
common suffix dropped by slicing, and the right one inverted, kept as the
oracle for the walk up both parent tables.

`intersection_number_euler_oracle` is the earlier Euler route, edges minus
vertices plus contractible components of the whole product, kept as the
oracle for edges minus vertices of the pruned product.
`intersection_number_euler_full_oracle` is the pruning route as it was
before the product went sparse: the full `FiberProduct` with every vertex
pair, pruned by `core_vertices_oracle`, the earlier `core_vertices` (a
FIFO leaf queue with per-edge liveness flags), kept as the oracle for the
shared `_prune`.
`is_folded_oracle` is the earlier `is_folded`, which built a list of
departures per signed label at each vertex and required one per list, kept
as the oracle for the two set sizes read off the edge list; the first entry
of each of those `germ_lists_oracle` lists is what `moves()` must return.
`core_and_tail_oracle` is the earlier `_core_and_tail`, a BFS of its own
that stops at the first core vertex, kept as the oracle for the
spanning-tree path.  `spanning_tree_oracle` is an earlier spanning tree,
which kept a path word for every vertex and a set of tree edges, kept as
the oracle for the parent table of `_based_tree` and the paths
`_tree_path` reads back from it; `component_subgroup_oracle` builds its
trees with it.
`based_morphism_oracle` is the earlier `_based_morphism`, a BFS of its own
from the basepoint, kept as the oracle for the map `finite_index` reads
along the spanning tree.  `canonical_key_oracle` is an earlier `canonical_key`,
the minimum of the complete BFS codes from every start vertex, kept as the
oracle for the codes from class 0 of the canonical refinement; the two
differ in bytes, so the test compares the graphs each key puts together.

`from_generators_oracle` and `attach_tail_oracle` are the earlier
`from_generators` and `_attach_tail`: glue whole arcs through fresh
vertices (a wedge of generator loops, or a basepoint arc onto a core),
fold, and prune with `core_based`.  They fold with `fold_oracle`, so they
share no merge code with the builder that reads words into a partly
folded graph.  `cyclic_reduce_oracle` is the earlier `cyclic_reduce`,
which copied the core once per stripped pair, kept as the oracle for
counting the matching ends once.

`all_cores(rank, max_vertices)` is the exhaustive census of small
subgroup classes: every folded graph on at most that many vertices (one
partial injection of the vertices per label), kept when it is a connected
core and deduplicated by a canonical key.

`departures(graph)` reads the list rows of `moves()` back as one dict per
vertex (signed label -> target), the form `moves()` had before its rows
became lists indexed by signed label; every oracle here that follows
departures reads them through it.  `stable_classes_oracle` is the earlier
`_stable_classes`, which bucketed the splitter's departures by letter from
those dicts, kept as the oracle for reading each letter the splitter's
members carry from the list rows of a snapshot of the splitter.  `canonical_key_dict_oracle` and
`canonical_key_based_dict_oracle` read the keys from the earlier
`_step_table`, built with `dict.get` per signed letter, and
`stable_classes_oracle`, kept as the oracle for the rows read by
`operator.itemgetter`.  `parse_word_oracle` is the earlier `parse_word`,
which decided the format by scanning for a digit and read compact words
one character at a time, kept as the oracle for the per-rank table.

`render_oracle` is the earlier `cli._render`: the whole report text, JSON
from `_json_pieces_oracle` (one recursive call per JSON value, every
piece in one list, joined once) or the TSV rows joined once, kept as the
oracle for the writer that renders scalars in place, caches dict heads and
hands its sink bounded chunks.
"""

import itertools
import random
from collections import deque, namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from subsetcurrents import (
    Alphabet,
    FiniteSubtree,
    LabeledGraph,
    MismatchBugError,
    NotConnectedError,
    NotSubgroupError,
    RationalCurrent,
    TrivialSubgroupError,
    canonical_key,
    check_core_graph,
    concat,
    contains,
    core_based,
    counting_current,
    enumerate_round_graphs,
    eval_cylinder,
    fiber_product,
    from_generators,
    invert,
    neighborhood_tree,
    normalize,
    random_subgroup,
    reduce_word,
)
from subsetcurrents.errors import WordFormatError
from subsetcurrents.stallings import (
    UnionFind,
    _based_tree,
    _bfs_code,
    _tree_path,
    core_vertices,
    induced_subgraph,
)
from subsetcurrents.cli import _cell
from subsetcurrents.words import _parse_extended

# a based graph as `graph_to_json_dict` writes it, for the JSON refusal tests
GOOD_JSON = {"rank": 2, "vertices": [0, 1], "edges": [[0, 1, 1], [1, 0, 2]], "basepoint": 0}


def departures(graph: LabeledGraph) -> list[dict[int, int]]:
    """Per vertex, signed label -> target, in `signed_letters()` order: the
    list rows of `moves()` read back as dicts."""
    order = Alphabet(graph.rank).signed_letters()
    return [{s: row[s] for s in order if row[s] is not None} for row in graph.moves()]


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


def _read_tree(graph: LabeledGraph, v: int, words: list) -> dict | None:
    """Image of every tree word read from v, or None when a label cannot be
    read.  The words must list each prefix before its extensions."""
    moves = departures(graph)
    image = {(): v}
    for w in words[1:]:
        tgt = moves[image[w[:-1]]].get(w[-1])
        if tgt is None:
            return None
        image[w] = tgt
    return image


def occurrence_count_oracle(tree: FiniteSubtree, graph: LabeledGraph) -> int:
    """The earlier `occurrence_count`: a dict keyed by tree words per vertex."""
    if not tree.nondegenerate:
        raise ValueError("occurrences are counted for subtrees with an edge")
    ws = tree.sorted_words()
    if max(abs(w[-1]) for w in ws[1:]) > graph.rank:
        raise ValueError(f"subtree letters exceed the graph's rank {graph.rank}")
    moves = departures(graph)
    interior = [(w, d) for w in ws if (d := tree.degree(w)) > 1]
    count = 0
    for v in range(graph.num_vertices):
        image = _read_tree(graph, v, ws)
        if image is not None and all(len(moves[image[w]]) == d for w, d in interior):
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


def _spelled(path, word):
    """Edges spelling the word along the given vertex path."""
    return [(o, t, x) if x > 0 else (t, o, -x) for o, t, x in zip(path, path[1:], word)]


def wedge(words, rank: int) -> LabeledGraph:
    """Unfolded wedge of one loop per nonempty word, based at vertex 0."""
    edges = []
    n = 1
    for w in filter(None, words):
        edges += _spelled([0] + list(range(n, n + len(w) - 1)) + [0], w)
        n += len(w) - 1
    return LabeledGraph(rank, n, edges, basepoint=0)


def cyclic_reduce_oracle(w):
    """Split w as conj * core * conj^-1, stripping one end pair per copy."""
    core = list(w)
    conj: list[int] = []
    while len(core) >= 2 and core[0] == -core[-1]:
        conj.append(core[0])
        core = core[1:-1]
    return tuple(core), tuple(conj)


def from_generators_oracle(gens, alphabet: Alphabet) -> LabeledGraph:
    """Fold a wedge of the reduced generators, then prune it to its based core."""
    words = [w for w in map(reduce_word, gens) if w]
    if not words:
        raise TrivialSubgroupError("all generators reduce to the identity")
    return check_core_graph(core_based(fold_oracle(wedge(words, alphabet.rank))))


def attach_tail_oracle(core_graph: LabeledGraph, at: int, word) -> LabeledGraph:
    """Glue an arc spelling the word from a new basepoint to the core through
    fresh vertices, then fold and prune; with no word the basepoint is `at`."""
    n = core_graph.num_vertices
    edges = list(core_graph.edges) + _spelled([n] + list(range(n + 1, n + len(word))) + [at], word)
    g = LabeledGraph(core_graph.rank, n + len(word), edges, basepoint=n if word else at)
    return check_core_graph(core_based(fold_oracle(g)))


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


def germ_lists_oracle(graph: LabeledGraph) -> list[dict[int, list[int]]]:
    """Per vertex, signed label -> every target, in edge order."""
    table: list[dict[int, list[int]]] = [{} for _ in range(graph.num_vertices)]
    for o, t, lab in graph.edges:
        table[o].setdefault(lab, []).append(t)
        table[t].setdefault(-lab, []).append(o)
    return table


def is_folded_oracle(graph: LabeledGraph) -> bool:
    """No vertex has two departures with the same signed label."""
    return all(
        len(targets) == 1 for germs in germ_lists_oracle(graph) for targets in germs.values()
    )


def _wl_classes(graph: LabeledGraph) -> list[int]:
    """Coarsest stable partition of a folded graph, as vertex colors.

    Colors start from the sets of signed departures and are refined by the
    colors each label leads to until the number of classes stops growing.
    Each round re-sorts all V signatures, so the cost is O(V * rounds), and
    the rounds can number about V/2: on the core of <a^n b>, a cycle of
    n + 1 vertices, the quotient took 1.2, 4.4 and 28.3 s at n = 1000,
    2000 and 4000 on a shared 2-vCPU host.  Hopcroft refinement would
    make it O(E log V).
    """
    moves = departures(graph)
    color = [tuple(sorted(row)) for row in moves]
    palette = {c: i for i, c in enumerate(sorted(set(color)))}
    colors = [palette[c] for c in color]
    while True:
        sig = [
            (colors[v], tuple(sorted((s, colors[t]) for s, t in row.items())))
            for v, row in enumerate(moves)
        ]
        palette = {c: i for i, c in enumerate(sorted(set(sig)))}
        new_colors = [palette[sig[v]] for v in range(graph.num_vertices)]
        if len(set(new_colors)) == len(set(colors)):
            return new_colors
        colors = new_colors


def stable_classes_oracle(graph: LabeledGraph) -> list[int]:
    """The earlier `_stable_classes`: Hopcroft splitting whose splitter's
    departures are bucketed by letter from dict rows before any split."""
    moves = departures(graph)
    order = Alphabet(graph.rank).signed_letters()
    cls = [0] * graph.num_vertices
    classes = [set(range(graph.num_vertices))]
    pending = {0: None}  # a stack of class ids, without repeats
    while pending:
        into: dict[int, list[int]] = {}
        for c in classes[pending.popitem()[0]]:
            for s, x in moves[c].items():
                into.setdefault(s, []).append(x)
        for s in order:
            touched: dict[int, set[int]] = {}
            for x in into.get(s, ()):
                touched.setdefault(cls[x], set()).add(x)
            for k in sorted(touched):
                marked, rest = touched[k], classes[k]
                if len(marked) == len(rest):
                    continue
                rest -= marked
                for x in marked:
                    cls[x] = len(classes)
                pending[len(classes) if k in pending or len(marked) <= len(rest) else k] = None
                classes.append(marked)
    return cls


def _step_table_oracle(graph: LabeledGraph) -> list[list[int | None]]:
    """The earlier `_step_table`: `dict.get` per signed letter of each row."""
    order = Alphabet(graph.rank).signed_letters()
    return [[row.get(s) for s in order] for row in departures(graph)]


def canonical_key_dict_oracle(graph: LabeledGraph) -> bytes:
    """`canonical_key` read from the dict-order table and the earlier
    refinement: the least BFS code over the members of class 0."""
    step = _step_table_oracle(graph)
    starts = [v for v, c in enumerate(stable_classes_oracle(graph)) if c == 0]
    return f"{graph.rank}:{min(_bfs_code(step, v) for v in starts)}".encode()


def canonical_key_based_dict_oracle(h: LabeledGraph) -> bytes:
    """`canonical_key_based` read from the dict-order table."""
    return f"{h.rank}:based:{_bfs_code(_step_table_oracle(h), h.basepoint)}".encode()


def parse_word_oracle(text: str, alphabet: Alphabet):
    """The earlier `parse_word`: extended format when any character is a
    digit, else compact, read one character at a time."""
    s = text.strip()
    if s in ("", "1"):
        return ()
    if any(ch.isdigit() for ch in s):
        return reduce_word(_parse_extended(s, alphabet))
    if alphabet.rank > 26:
        raise WordFormatError(
            f"compact format covers ranks up to 26, not {alphabet.rank}; use x<i>/X<i>"
        )
    letters = []
    for ch in s:
        if "a" <= ch <= "z":
            x = ord(ch) - ord("a") + 1
        elif "A" <= ch <= "Z":
            x = -(ord(ch) - ord("A") + 1)
        else:
            raise WordFormatError(f"unknown token {ch!r} in word {s!r}")
        if abs(x) > alphabet.rank:
            raise WordFormatError(f"generator {ch!r} exceeds rank {alphabet.rank}")
        letters.append(x)
    return reduce_word(letters)


def _closure_partition(graph: LabeledGraph, v: int, w: int) -> UnionFind:
    """Finest vertex identification containing v ~ w with a folded quotient."""
    uf = UnionFind(graph.num_vertices)
    germ: dict[int, dict[int, int]] = {u: dict(m) for u, m in enumerate(departures(graph))}
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
    moves = departures(graph)
    for members in roots.values():
        sig = moves[members[0]].keys()
        if any(moves[u].keys() != sig for u in members[1:]):
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


def component_subgroup_oracle(fp, comp, h: LabeledGraph, k: LabeledGraph):
    """Double-coset representative g and generators of H meet gKg^-1.

    The fiber product must have been built from the based graphs of h and k.
    With (u, v) the component's base vertex and w_a, w_b basepoint paths to
    u and v, the representative is g = w_a * w_b^-1 and each spanning-tree
    loop word l of the component yields the generator w_a * l * w_a^-1.
    """
    if fp.left is not h or fp.right is not k:
        raise ValueError("fiber product was not built from these based graphs")
    u, v = fp.vertex_pair(comp.base_vertex)
    path_h, _ = spanning_tree_oracle(h, h.basepoint)
    path_k, _ = spanning_tree_oracle(k, k.basepoint)
    w_a = path_h[u]
    w_b = path_k[v]
    g = concat(w_a, invert(w_b))
    members = [
        v for v, c in enumerate(fp.graph.component_ids()) if c == comp.base_vertex
    ]
    sub, renum = induced_subgraph(fp.graph, members)
    path_c, tree_edges = spanning_tree_oracle(sub, renum[comp.base_vertex])
    gens = []
    for o, t, lab in sub.edges:
        if (o, t, lab) in tree_edges:
            continue
        loop = concat(path_c[o], (lab,), invert(path_c[t]))
        gens.append(concat(w_a, loop, invert(w_a)))
    g_inv = invert(g)
    for gen in gens:
        if not contains(h, gen) or not contains(k, concat(g_inv, gen, g)):
            raise MismatchBugError(
                "component generator escaped H or its K-conjugate"
            )
    return g, gens


def spanning_tree_oracle(graph: LabeledGraph, root: int):
    """Deterministic BFS tree: path words from the root and the tree edges,
    as triples, which name edges since a folded graph has no duplicates."""
    order = Alphabet(graph.rank).signed_letters()
    moves = departures(graph)
    path = {root: ()}
    tree_edges = set()
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for s in order:
            t = moves[v].get(s)
            if t is not None and t not in path:
                path[t] = path[v] + (s,)
                tree_edges.add((v, t, s) if s > 0 else (t, v, -s))
                queue.append(t)
    return path, tree_edges


def based_morphism_oracle(h: LabeledGraph, k: LabeledGraph) -> list[int]:
    """The label-preserving map (h, *) -> (k, *); exists exactly when H <= K."""
    h_moves, k_moves = departures(h), departures(k)
    f = [-1] * h.num_vertices
    f[h.basepoint] = k.basepoint
    queue = deque([h.basepoint])
    while queue:
        v = queue.popleft()
        for s, t in h_moves[v].items():
            img = k_moves[f[v]].get(s)
            if img is None:
                raise NotSubgroupError("subgroup graph does not map into the target")
            if f[t] == -1:
                f[t] = img
                queue.append(t)
            elif f[t] != img:
                raise NotSubgroupError("no consistent label-preserving map exists")
    return f


def finite_index_oracle(h: LabeledGraph, k: LabeledGraph) -> int | None:
    """The earlier `finite_index` on `based_morphism_oracle`: the map must
    exist, and restricted to the cores it must be locally bijective."""
    f = based_morphism_oracle(h, k)
    core_h, core_k = core_vertices(h), core_vertices(k)
    if not core_k:
        return 1
    if not core_h:
        return None
    h_moves, k_moves = departures(h), departures(k)
    for v in core_h:
        here = {s for s, t in h_moves[v].items() if t in core_h}
        if here != {s for s, t in k_moves[f[v]].items() if t in core_k}:
            return None
    return len(core_h) // len(core_k)


def assert_tree_matches_oracle(graph: LabeledGraph, root: int) -> None:
    """The parent table against `spanning_tree_oracle`: the same vertices in
    the same BFS order, the same path word to each, the same tree edges, and
    the parent test of `subgroup_generators` picks out exactly those edges.
    The graph is rebased at `root`, since `_based_tree` walks from the
    basepoint."""
    rebased = LabeledGraph(graph.rank, graph.num_vertices, graph.edges, basepoint=root)
    parent = _based_tree(rebased, "assert_tree_matches_oracle")
    path, tree_edges = spanning_tree_oracle(graph, root)
    assert list(parent) == list(path)
    assert all(_tree_path(parent, v) == path[v] for v in parent)
    steps = [(step[0], v, step[1]) for v, step in parent.items() if step is not None]
    assert {(u, v, s) if s > 0 else (v, u, -s) for u, v, s in steps} == tree_edges
    assert {
        (o, t, lab) for o, t, lab in graph.edges
        if parent.get(t) == (o, lab) or parent.get(o) == (t, -lab)
    } == tree_edges


OracleComponent = namedtuple(
    "OracleComponent", "vertices num_edges euler contractible base_vertex"
)


def classify_components_oracle(fp) -> list[OracleComponent]:
    """Per-component vertex lists, edge counts and Euler characteristics.

    Isolated vertices count as (contractible) components; a connected
    component is contractible exactly when its Euler characteristic is 1.
    """
    comp_of = fp.graph.component_ids()
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(comp_of):
        groups.setdefault(c, []).append(v)
    edge_count = {c: 0 for c in groups}
    for o, _, _ in fp.graph.edges:
        edge_count[comp_of[o]] += 1
    reports = []
    for c in sorted(groups):
        vs = groups[c]
        e = edge_count[c]
        euler = len(vs) - e
        reports.append(
            OracleComponent(
                vertices=vs,
                num_edges=e,
                euler=euler,
                contractible=(euler == 1),
                base_vertex=min(vs),
            )
        )
    return reports


def component_ids_oracle(num_vertices: int, edges) -> tuple[int, ...]:
    """Per vertex, the smallest vertex of its component, by BFS from each
    unlabelled vertex in ascending order; edges are (origin, terminus, ...)."""
    adjacent: list[list[int]] = [[] for _ in range(num_vertices)]
    for o, t, *_ in edges:
        adjacent[o].append(t)
        adjacent[t].append(o)
    label: list[int | None] = [None] * num_vertices
    for start in range(num_vertices):
        if label[start] is not None:
            continue
        label[start] = start
        queue = deque([start])
        while queue:
            for u in adjacent[queue.popleft()]:
                if label[u] is None:
                    label[u] = start
                    queue.append(u)
    return tuple(label)


def c_hat_oracle(mu: RationalCurrent, nu: RationalCurrent) -> Fraction:
    """Bilinear count of contractible fiber-product components, read from
    the component reports of each product."""
    if mu.is_zero or nu.is_zero:
        return Fraction(0)
    total = Fraction(0)
    for c1, g1 in mu.terms():
        for c2, g2 in nu.terms():
            comps = fiber_product(g1, g2).components()
            total += c1 * c2 * sum(comp.contractible for comp in comps)
    return total


def representative_oracle(fp, comp):
    """g = w_a * w_b^-1 for the component's base vertex (u, v), with w_a and
    w_b the full tree paths to u and v; the common suffix is dropped."""
    u, v = fp.vertex_pair(comp.base_vertex)
    w_a = _tree_path(_based_tree(fp.left, "representative_oracle"), u)
    w_b = _tree_path(_based_tree(fp.right, "representative_oracle"), v)
    i, j = len(w_a), len(w_b)
    while i and j and w_a[i - 1] == w_b[j - 1]:
        i -= 1
        j -= 1
    return w_a[:i] + invert(w_b[:j])


def intersection_number_euler_oracle(h: LabeledGraph, k: LabeledGraph) -> int:
    """Edges minus vertices plus contractible components of the product."""
    fp = fiber_product(h, k)
    return (
        len(fp.graph.edges)
        - fp.graph.num_vertices
        + sum(1 for c in fp.components() if c.contractible)
    )


def core_and_tail_oracle(h: LabeledGraph):
    """Split a based graph into its unbased core, the attachment vertex
    (as a core-graph index) and the word read along the basepoint arc."""
    survivors = core_vertices(h)
    cg, renum = induced_subgraph(h, survivors)
    if h.basepoint in survivors:
        return cg, renum[h.basepoint], ()
    order = Alphabet(h.rank).signed_letters()
    moves = departures(h)
    prev: dict[int, tuple[int, int]] = {h.basepoint: (-1, 0)}
    queue = deque([h.basepoint])
    hit = None
    while queue and hit is None:
        v = queue.popleft()
        for s in order:
            t = moves[v].get(s)
            if t is None or t in prev:
                continue
            prev[t] = (v, s)
            if t in survivors:
                hit = t
                break
            queue.append(t)
    if hit is None:
        raise MismatchBugError("based graph is disconnected from its own core")
    letters = []
    v = hit
    while v != h.basepoint:
        p, s = prev[v]
        letters.append(s)
        v = p
    return cg, renum[hit], tuple(reversed(letters))


def _bfs_code_oracle(graph: LabeledGraph, start: int, order: list[int]):
    moves = departures(graph)
    ids = {start: 0}
    seq = [start]
    rows = []
    qi = 0
    while qi < len(seq):
        v = seq[qi]
        qi += 1
        row = []
        for s in order:
            t = moves[v].get(s)
            if t is None:
                row.append(-1)
            else:
                if t not in ids:
                    ids[t] = len(seq)
                    seq.append(t)
                row.append(ids[t])
        rows.append(tuple(row))
    if len(seq) != graph.num_vertices:
        raise NotConnectedError("canonical form needs a connected graph")
    return tuple(rows)


def canonical_key_oracle(graph: LabeledGraph) -> bytes:
    """Minimum over all start vertices of the complete BFS adjacency code."""
    order = Alphabet(graph.rank).signed_letters()
    best = min(_bfs_code_oracle(graph, s, order) for s in range(graph.num_vertices))
    return f"{graph.rank}:{best}".encode()


def core_vertices_oracle(graph: LabeledGraph, keep: int | None = None) -> set[int]:
    """Vertices surviving iterated removal of degree <= 1 vertices."""
    n = graph.num_vertices
    deg = [0] * n
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (o, t, _) in enumerate(graph.edges):
        deg[o] += 1
        deg[t] += 1
        incident[o].append(i)
        incident[t].append(i)
    alive_v = [True] * n
    alive_e = [True] * len(graph.edges)
    queue = deque(v for v in range(n) if deg[v] <= 1 and v != keep)
    while queue:
        v = queue.popleft()
        if not alive_v[v] or deg[v] > 1:
            continue
        alive_v[v] = False
        for i in incident[v]:
            if not alive_e[i]:
                continue
            alive_e[i] = False
            o, t, _ = graph.edges[i]
            deg[o] -= 1
            deg[t] -= 1
            for u in {o, t} - {v}:
                if alive_v[u] and deg[u] <= 1 and u != keep:
                    queue.append(u)
    return {v for v in range(n) if alive_v[v]}


def intersection_number_euler_full_oracle(h: LabeledGraph, k: LabeledGraph) -> int:
    """Edges minus vertices of the pruned full product."""
    product = fiber_product(h, k).graph
    survivors = core_vertices_oracle(product)
    edges = sum(1 for o, t, _ in product.edges if o in survivors and t in survivors)
    return edges - len(survivors)


def _component_matches_tree(fp, comp, tree: FiniteSubtree) -> bool:
    """Unbased label-isomorphism test between a tree component and a subtree."""
    if comp.num_vertices != tree.num_vertices or comp.num_edges != tree.num_edges:
        return False
    sub = fp._component_graph(comp)
    ws = tree.sorted_words()
    for start in range(sub.num_vertices):
        image = _read_tree(sub, start, ws)
        if image is not None and len(set(image.values())) == sub.num_vertices:
            return True
    return False


def c_hat_via_round_graphs(
    h: LabeledGraph, k: LabeledGraph, tree: FiniteSubtree, r: int | None = None
) -> int:
    """Count contractible components isomorphic to the tree by two routes.

    Route one inspects components of the fiber product directly.  Route two
    never looks at the product: a component through a vertex pair is a copy
    of the tree exactly when the grade-(r+1) neighborhood trees of the two
    factor vertices intersect in it, so scanning all vertex pairs gives the
    same count.  Both are computed and compared before returning;
    disagreement is a bug, never a valid outcome.
    """
    if r is None:
        r = tree.depth
    if tree.depth > r:
        raise ValueError(f"tree of depth {tree.depth} does not fit radius {r}")
    fp = fiber_product(h, k)
    direct = sum(
        1
        for comp in fp.components()
        if comp.contractible
        and _component_matches_tree(fp, comp, tree)
    )
    trees_h = [neighborhood_tree(h, v, r + 1) for v in range(h.num_vertices)]
    trees_k = [neighborhood_tree(k, v, r + 1) for v in range(k.num_vertices)]
    paired = sum(
        1
        for t1 in trees_h
        for t2 in trees_k
        if FiniteSubtree(t1.words & t2.words) == tree
    )
    if direct != paired:
        raise MismatchBugError(
            f"component isomorphism count {direct} != vertex-pair count {paired} "
            f"for tree {sorted(tree.words)}"
        )
    return direct


def truncated_cyclic_cover(h: LabeledGraph, n: int) -> LabeledGraph:
    """n sheets of the based core h, based in sheet 0.  The first edge of h
    that its spanning tree does not name runs from sheet i to sheet i + 1
    for i < n - 1 and is dropped in the last sheet; every other edge stays
    in its sheet.  For n = 1 that is h less one edge."""
    tree = set()
    for v, step in _based_tree(h, "truncated_cyclic_cover").items():
        if step is not None:
            p, x = step
            tree.add((p, v, x) if x > 0 else (v, p, -x))
    cut = next(e for e in h.edges if e not in tree)
    size = h.num_vertices
    edges = []
    for i in range(n):
        shift = i * size
        for o, t, lab in h.edges:
            if (o, t, lab) != cut:
                edges.append((o + shift, t + shift, lab))
            elif i < n - 1:
                edges.append((o + shift, t + shift + size, lab))
    return check_core_graph(LabeledGraph(h.rank, n * size, edges, basepoint=h.basepoint))


def _partial_injections(n: int) -> list[list[tuple[int, int]]]:
    """Every partial injection of n points, as (origin, terminus) pairs:
    sum over k of C(n, k)^2 * k! of them."""
    return [
        list(zip(domain, image))
        for k in range(n + 1)
        for domain in itertools.combinations(range(n), k)
        for image in itertools.permutations(range(n), k)
    ]


def all_cores(rank: int, max_vertices: int, key=canonical_key) -> list[LabeledGraph]:
    """One unbased core graph per class of `key`, over every folded graph of
    the rank on 1..max_vertices vertices that is connected with every
    degree at least 2, in order of first appearance."""
    classes: dict[bytes, LabeledGraph] = {}
    for n in range(1, max_vertices + 1):
        for choice in itertools.product(_partial_injections(n), repeat=rank):
            edges = [(o, t, lab) for lab, pairs in enumerate(choice, 1) for o, t in pairs]
            g = LabeledGraph(rank, n, edges)
            # partial injections fold, so a vertex's degree is its departures
            if min(map(len, departures(g))) >= 2 and g.is_connected():
                classes.setdefault(key(g), g)
    return list(classes.values())


def _json_pieces_oracle(value, newline: str, put) -> None:
    kind = type(value)
    if kind is str:
        put(encode_basestring_ascii(value))
    elif kind is int:
        put(int.__repr__(value))
    elif kind is bool:
        put("true" if value else "false")
    elif value is None:
        put("null")
    elif kind is list:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "[" + inner
        for item in value:
            put(sep)
            _json_pieces_oracle(item, inner, put)
            sep = comma
        put(newline + "]")
    elif kind is dict:
        if not value:
            put("{}")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            put(sep + encode_basestring_ascii(key) + ": ")
            _json_pieces_oracle(value[key], inner, put)
            sep = comma
        put(newline + "}")
    else:
        raise TypeError(f"a report cannot hold a {kind.__name__}")


def render_oracle(fmt: str, report, rows: list[list]) -> str:
    if fmt == "json":
        pieces: list[str] = []
        _json_pieces_oracle(report, "\n", pieces.append)
        return "".join(pieces) + "\n"
    return "".join("\t".join(map(_cell, row)) + "\n" for row in rows)
