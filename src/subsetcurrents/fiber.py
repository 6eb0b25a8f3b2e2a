"""Fiber products of core graphs over the rose.

A `FiberProduct` of two folded labeled graphs keeps every vertex pair, so
its connected components split into trees and components carrying
essential loops.  Both intersection-number routes live here: edges minus
vertices of the pruned product, which counts the degree of each vertex
pair that some product edge touches and peels leaves by reading the
factors' departure tables, so it stores no product edge; and the sum of
reduced ranks over the double-coset components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchBugError
from .stallings import (
    Edge,
    LabeledGraph,
    _alphabet,
    _based_tree,
    _tree_path,
    contains,
    from_generators,
    reduced_rank,
    subgroup_generators,
)
from .words import Word, concat, invert


@dataclass(slots=True)
class ComponentReport:
    """Shape of one connected component of a fiber product.

    The component's vertices are those whose entry in
    `fp.graph.component_ids()` is `base_vertex`, its smallest vertex.
    """

    base_vertex: int
    num_vertices: int
    num_edges: int

    @property
    def euler(self) -> int:
        return self.num_vertices - self.num_edges

    @property
    def contractible(self) -> bool:
        """A connected graph is a tree exactly when V - E = 1."""
        return self.euler == 1


def _join(left: LabeledGraph, right: LabeledGraph) -> dict[int, list[tuple[int, int]]]:
    """The door of every product walk: refuse factors of two ranks, then
    unfolded ones, and return the right factor's (origin, terminus) pairs
    listed per label, which the walk joins the left factor's edges to.
    `is_folded` builds both departure tables, and a `SizeLimitError` from
    them passes through."""
    if left.rank != right.rank:
        raise ValueError("fiber product needs a common ambient rank")
    if not (left.is_folded() and right.is_folded()):
        raise ValueError("fiber product factors must be folded")
    by_label: dict[int, list[tuple[int, int]]] = {}
    for o, t, lab in right.edges:
        by_label.setdefault(lab, []).append((o, t))
    return by_label


def _product_edges(left: LabeledGraph, right: LabeledGraph) -> list[Edge]:
    """Edges of the fiber product, joined by label: edges o1 -> t1 of the
    left factor and o2 -> t2 of the right with the same label give the
    edge (o1, o2) -> (t1, t2), where the pair (v1, v2) is numbered
    v1 * V2 + v2.  Both factors must be folded and of one rank."""
    by_label = _join(left, right)
    n2 = right.num_vertices
    return [
        (o1 * n2 + o2, t1 * n2 + t2, lab)
        for o1, t1, lab in left.edges
        for o2, t2 in by_label.get(lab, ())
    ]


class FiberProduct:
    """Pullback of two labeled graphs over the common rose.

    Component data is built lazily and at most once: the component ids
    (memoized on `graph`), the reports, both factors' spanning-tree parent
    tables from their basepoints, and the product edges bucketed by
    component.
    """

    __slots__ = ("left", "right", "graph", "_reports", "_trees", "_buckets")

    def __init__(self, left: LabeledGraph, right: LabeledGraph):
        self.left = left
        self.right = right
        self.graph = LabeledGraph(
            left.rank, left.num_vertices * right.num_vertices, _product_edges(left, right)
        )
        self._reports = None
        self._trees = None
        self._buckets = None

    def vertex_pair(self, pv: int) -> tuple[int, int]:
        return divmod(pv, self.right.num_vertices)

    def components(self) -> list[ComponentReport]:
        if self._reports is None:
            self._reports = classify_components(self)
        return self._reports

    def _component_graph(self, comp: ComponentReport) -> LabeledGraph:
        """The component as a graph based at its base vertex, which the
        ascending renumbering (as in `induced_subgraph`) makes vertex 0.

        The first call buckets every product edge by component in one
        pass; each call after that costs the size of its component.  The
        vertices are the endpoints of the component's edges, or the base
        vertex alone for an isolated pair.
        """
        if self._buckets is None:
            comp_of = self.graph.component_ids()
            buckets: dict[int, list] = {}
            for e in self.graph.edges:
                buckets.setdefault(comp_of[e[0]], []).append(e)
            self._buckets = buckets
        bucket = self._buckets.get(comp.base_vertex, ())
        members = sorted({v for o, t, _ in bucket for v in (o, t)}) or [comp.base_vertex]
        renum = {v: i for i, v in enumerate(members)}
        edges = [(renum[o], renum[t], lab) for o, t, lab in bucket]
        return LabeledGraph(self.graph.rank, len(renum), edges, basepoint=0)


def fiber_product(g1: LabeledGraph, g2: LabeledGraph) -> FiberProduct:
    return FiberProduct(g1, g2)


def classify_components(fp: FiberProduct) -> list[ComponentReport]:
    """Vertex and edge counts per component, by ascending base vertex.

    Isolated vertices count as (contractible) components.  Membership is
    read from `fp.graph.component_ids()`, so no vertex list is built: one
    pass over the vertices and one over the edges count into lists indexed
    by base vertex, and a base vertex is exactly an entry with a vertex.
    The cylinder route does not read these reports; `c_hat` counts its
    trees with a union pass of its own.
    """
    comp_of = fp.graph.component_ids()
    sizes = [0] * len(comp_of)
    for c in comp_of:
        sizes[c] += 1
    edge_count = [0] * len(comp_of)
    for o, _, _ in fp.graph.edges:
        edge_count[comp_of[o]] += 1
    return [ComponentReport(c, n, edge_count[c]) for c, n in enumerate(sizes) if n]


def component_subgroup(fp: FiberProduct, comp: ComponentReport) -> tuple[Word, list[Word]]:
    """Double-coset representative g and generators of H meet gKg^-1.

    H and K are the based factors `fp.left` and `fp.right`.  With (u, v)
    the component's base vertex and w_a, w_b the spanning-tree paths from
    the basepoints to u and v, the representative is g = w_a * w_b^-1 and
    each spanning-tree loop word l of the component yields the generator
    w_a * l * w_a^-1.  Tree paths in folded graphs are reduced, so g only
    drops the common suffix of w_a and w_b: both parent tables are walked
    up together while their letters agree, and g is read from the two
    stops, the left path up to its root reversed and then the right path
    up to its root with each letter negated.  w_a itself is spelled only
    for an essential component.

    Both factors must be based and connected: `_based_tree` refuses
    either in this function's name.

    Cost: the first call on a product builds both factors' parent tables,
    and the first call on an essential component buckets the product
    edges by component; both are cached on `fp`.  Every other call costs
    the size of its component plus the depths of u and v, so no path word
    is kept per factor vertex.  A contractible component is a tree: it has
    no non-tree edge, so its generators are [] and no subgraph is built.
    """
    h, k = fp.left, fp.right
    if fp._trees is None:
        fp._trees = (_based_tree(h, "component_subgroup"), _based_tree(k, "component_subgroup"))
    left, right = fp._trees
    u, v = fp.vertex_pair(comp.base_vertex)
    a, b = u, v
    while True:
        step_a, step_b = left[a], right[b]
        if step_a is None or step_b is None or step_a[1] != step_b[1]:
            break
        a, b = step_a[0], step_b[0]
    letters = []
    while left[a] is not None:
        a, s = left[a]
        letters.append(s)
    letters.reverse()
    while right[b] is not None:
        b, s = right[b]
        letters.append(-s)
    g = tuple(letters)
    if comp.contractible:
        return g, []
    w_a = _tree_path(left, u)
    gens = [
        concat(w_a, loop, invert(w_a))
        for loop in subgroup_generators(fp._component_graph(comp))
    ]
    g_inv = invert(g)
    for gen in gens:
        if not contains(h, gen) or not contains(k, concat(g_inv, gen, g)):
            raise MismatchBugError(
                "component generator escaped H or its K-conjugate"
            )
    return g, gens


def intersection_number_euler(h: LabeledGraph, k: LabeledGraph) -> int:
    """Edges minus vertices of the pruned product.

    Iterated leaf removal deletes every tree component (V - E = 1) and
    every hanging tree (V - E = 0) without changing E - V elsewhere, so
    what is left sums rank minus one over the essential components.  The
    route classifies no component, and it gives the same value for based
    factors as for their cores.

    No product edge is stored.  Joining the factors' edges by label counts
    E and the degree of each touched pair (u, v), numbered u * V2 + v; an
    isolated pair is pruned anyway, so it is never numbered.  A leaf finds
    its one live neighbour by reading the places at u against the
    departures of v, and removing it takes one edge and one vertex, which
    leaves E - V as it was.  A pair whose last neighbour went first is the
    last vertex of a tree and adds one.  So the value is E minus the
    touched pairs plus the pairs removed at degree 0.

    Cost: the product's edges plus, per removed leaf, the degree of u;
    nothing scales with the rank or with V1 * V2.
    """
    by_label = _join(h, k)
    n2 = k.num_vertices
    deg: dict[int, int] = {}
    get = deg.get
    num_edges = 0
    for o1, t1, lab in h.edges:
        pairs = by_label.get(lab)
        if pairs is None:
            continue
        num_edges += len(pairs)
        o1 *= n2
        t1 *= n2
        for o2, t2 in pairs:
            o2 += o1
            deg[o2] = get(o2, 0) + 1
            t2 += t1
            deg[t2] = get(t2, 0) + 1
    h_moves, k_moves, h_places = h.moves(), k.moves(), h._places
    # deg[p] counts the live edges at p, and a pair is queued once, when
    # its degree first is 1.  A removed pair reads 0, which no pair with a
    # live edge does.
    queue = [p for p, d in deg.items() if d == 1]
    trees = 0
    while queue:
        p = queue.pop()
        if not deg[p]:
            trees += 1
            continue
        deg[p] = 0
        u, v = divmod(p, n2)
        here, there = h_moves[u], k_moves[v]
        for i in h_places[u]:
            w = there[i]
            if w is not None:
                q = here[i] * n2 + w
                d = deg[q]
                if d > 0:  # the one neighbour not yet removed
                    deg[q] = d - 1
                    if d == 2:
                        queue.append(q)
                    break
    return num_edges - len(deg) + trees


def intersection_number_cosets(h: LabeledGraph, k: LabeledGraph) -> int:
    """Sum of reduced ranks of the double-coset intersection subgroups.

    Each non-contractible component is converted back into an honest
    subgroup via its generators, so this route does not reuse the Euler
    arithmetic of the component itself.  Both factors must be based and
    connected even when no component is essential, so their trees are
    built first and left on the product for `component_subgroup`.
    """
    trees = (_based_tree(h, "intersection_number_cosets"),
             _based_tree(k, "intersection_number_cosets"))
    fp = fiber_product(h, k)
    fp._trees = trees
    alphabet = _alphabet(h.rank)
    return sum(
        reduced_rank(from_generators(component_subgroup(fp, comp)[1], alphabet))
        for comp in fp.components()
        if not comp.contractible
    )
