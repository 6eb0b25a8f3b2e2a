"""Fiber products of core graphs over the rose.

A `FiberProduct` of two folded labeled graphs keeps every vertex pair, so
its connected components split into trees and components carrying
essential loops.  Both intersection-number routes live here: edges minus
vertices of the pruned product, which keeps per vertex pair its degree
and the XOR of its neighbours, so it stores no product edge and a leaf
reads its one neighbour off its XOR; and the sum of reduced ranks over
the double-coset components.  Every product walk enters through `_join`,
which refuses a product of more than `MAX_PRODUCT_EDGES` edges, and the
walks that hold every vertex pair list their edges through
`_product_edges`, which refuses more than `MAX_PRODUCT_PAIRS` pairs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .errors import MismatchBugError, SizeLimitError
from .stallings import (
    Edge,
    LabeledGraph,
    _alphabet,
    _based_tree,
    _peel,
    _tree_path,
    contains,
    from_generators,
    reduced_rank,
    subgroup_generators,
)
from .words import Word, concat, invert

# Most edges a product walk may join: at about 310 bytes an edge, the
# hungriest walk, a `FiberProduct` with its components, stays near 2.4 GiB.
MAX_PRODUCT_EDGES = 2**23

# Most vertex pairs a per-pair product walk may number: a `FiberProduct`
# with its components, the hungriest, holds about 150 bytes a pair, so
# 2^24 pairs stay near the edge budget's 2.4 GiB.  The Euler route holds
# only the pairs its tables need and is not bound by this.
MAX_PRODUCT_PAIRS = 2**24

# The Euler route's tables hold two slots a pair: a list slot is one 8-byte
# pointer, and a dict entry at least a 24-byte record and an 8-byte index,
# 4 slots.  A touched pair has degree 1 or more, mostly 2, so there are
# about as many touched pairs as edges, and lists over all V1 * V2 pairs
# cost no more than dicts over the touched ones while V1 * V2 <= 4 * E.
_DENSE_PAIRS_PER_EDGE = 4


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


def _join(left: LabeledGraph, right: LabeledGraph) -> tuple[dict[int, list[tuple[int, int]]], int]:
    """The door of every product walk: refuse factors of two ranks, then
    unfolded ones, then a product of more than `MAX_PRODUCT_EDGES` edges,
    and return the right factor's (origin, terminus) pairs listed per
    label, which the walk joins the left factor's edges to, with the
    product's edge count E, the sum over labels of e1 * e2.  E costs one
    pass over the left factor's edges, so the refusal comes before the
    walk allocates anything of the product's edge count.  `is_folded` builds
    both departure tables, and a `SizeLimitError` from them passes
    through."""
    if left.rank != right.rank:
        raise ValueError("fiber product needs a common ambient rank")
    if not (left.is_folded() and right.is_folded()):
        raise ValueError("fiber product factors must be folded")
    by_label: dict[int, list[tuple[int, int]]] = {}
    for o, t, lab in right.edges:
        by_label.setdefault(lab, []).append((o, t))
    get = by_label.get
    num_edges = sum(len(get(lab, ())) for _, _, lab in left.edges)
    if num_edges > MAX_PRODUCT_EDGES:
        raise SizeLimitError(
            f"a fiber product of {left.num_vertices} x {right.num_vertices} vertices "
            f"has {num_edges} edges, above the budget of {MAX_PRODUCT_EDGES}"
        )
    return by_label, num_edges


def _product_edges(left: LabeledGraph, right: LabeledGraph) -> list[Edge]:
    """Edges of the fiber product, joined by label: edges o1 -> t1 of the
    left factor and o2 -> t2 of the right with the same label give the
    edge (o1, o2) -> (t1, t2), where the pair (v1, v2) is numbered
    v1 * V2 + v2.  Both factors must be folded and of one rank, and the
    product may hold at most `MAX_PRODUCT_EDGES` edges (`_join`).  Every
    caller then allocates per pair, so V1 * V2 above `MAX_PRODUCT_PAIRS`
    is refused too, before any edge is listed."""
    by_label, _ = _join(left, right)
    n2 = right.num_vertices
    pairs = left.num_vertices * n2
    if pairs > MAX_PRODUCT_PAIRS:
        raise SizeLimitError(
            f"a fiber product of {left.num_vertices} x {n2} vertices "
            f"has {pairs} vertex pairs, above the budget of {MAX_PRODUCT_PAIRS}"
        )
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
    component.  A product of more than `MAX_PRODUCT_EDGES` edges or
    `MAX_PRODUCT_PAIRS` vertex pairs is refused with `SizeLimitError`
    before its edge list is built.
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
    E and, per pair (u, v) numbered u * V2 + v, its degree and the XOR of
    its neighbours' numbers, and `stallings._peel`, the leaf peel that
    coring runs too, peels those tables.  Removing a leaf takes one edge
    and one vertex, which leaves E - V as it was.  A pair whose last neighbour
    went first is the last vertex of a tree and adds one, and so does an
    untouched pair.  So the value is E minus the pairs held plus the pairs
    `_peel` removes at degree 0.

    The two tables are lists over all V1 * V2 pairs when V1 * V2 is at
    most `_DENSE_PAIRS_PER_EDGE` times E, and dicts over the touched pairs
    otherwise; both sizes are known before the walk.  Cost: O(E + V1 * V2)
    dense and O(E) sparse, so O(E) either way, with nothing that scales
    with the rank; `_join` refuses E above `MAX_PRODUCT_EDGES` first.
    """
    by_label, num_edges = _join(h, k)
    n2 = k.num_vertices
    pairs = h.num_vertices * n2
    dense = pairs <= _DENSE_PAIRS_PER_EDGE * num_edges
    if dense:
        deg, nbr = [0] * pairs, [0] * pairs
    else:
        deg, nbr = defaultdict(int), defaultdict(int)
    for o1, t1, lab in h.edges:
        ends = by_label.get(lab)
        if ends is None:
            continue
        o1 *= n2
        t1 *= n2
        for o2, t2 in ends:
            o2 += o1
            t2 += t1
            deg[o2] += 1
            deg[t2] += 1
            nbr[o2] ^= t2
            nbr[t2] ^= o2
    queue = [p for p, d in (enumerate(deg) if dense else deg.items()) if d <= 1]
    return num_edges - len(deg) + _peel(deg, nbr, queue)


def intersection_number_cosets(h: LabeledGraph, k: LabeledGraph) -> int:
    """Sum of reduced ranks of the double-coset intersection subgroups.

    Each non-contractible component is converted back into an honest
    subgroup via its generators, so this route does not reuse the Euler
    arithmetic of the component itself.  It builds a `FiberProduct`, so
    it refuses what that refuses.  Both factors must be based and
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
