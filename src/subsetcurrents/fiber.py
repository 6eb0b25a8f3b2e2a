"""Fiber products of core graphs over the rose.

The product of two folded labeled graphs keeps every vertex pair, so its
connected components split into trees and components carrying essential
loops.  Both intersection-number routes live here: the Euler count over
the whole product and the sum of reduced ranks over the double-coset
components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchBugError
from .stallings import (
    LabeledGraph,
    _spanning_tree,
    contains,
    from_generators,
    induced_subgraph,
    reduced_rank,
)
from .words import Alphabet, Word, concat, invert


@dataclass
class ComponentReport:
    """Shape summary of one connected component of a fiber product."""

    vertices: list[int]
    num_edges: int
    euler: int
    contractible: bool
    base_vertex: int

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)


class FiberProduct:
    """Pullback of two labeled graphs over the common rose."""

    __slots__ = ("left", "right", "graph", "_reports")

    def __init__(self, left: LabeledGraph, right: LabeledGraph):
        if left.rank != right.rank:
            raise ValueError("fiber product needs a common ambient rank")
        if not (left.is_folded() and right.is_folded()):
            raise ValueError("fiber product factors must be folded")
        self.left = left
        self.right = right
        n2 = right.num_vertices
        by_label: dict[int, list[tuple[int, int]]] = {}
        for o, t, lab in right.edges:
            by_label.setdefault(lab, []).append((o, t))
        edges = []
        for o1, t1, lab in left.edges:
            for o2, t2 in by_label.get(lab, ()):
                edges.append((o1 * n2 + o2, t1 * n2 + t2, lab))
        self.graph = LabeledGraph(
            left.rank, left.num_vertices * n2, edges
        )
        self._reports = None

    def vertex_pair(self, pv: int) -> tuple[int, int]:
        return divmod(pv, self.right.num_vertices)

    def pair_vertex(self, v1: int, v2: int) -> int:
        return v1 * self.right.num_vertices + v2

    def components(self) -> list[ComponentReport]:
        if self._reports is None:
            self._reports = classify_components(self)
        return self._reports

    def contractible_count(self) -> int:
        return sum(1 for c in self.components() if c.contractible)


def fiber_product(g1: LabeledGraph, g2: LabeledGraph) -> FiberProduct:
    return FiberProduct(g1, g2)


def classify_components(fp: FiberProduct) -> list[ComponentReport]:
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
            ComponentReport(
                vertices=vs,
                num_edges=e,
                euler=euler,
                contractible=(euler == 1),
                base_vertex=min(vs),
            )
        )
    return reports


def component_subgroup(
    fp: FiberProduct, comp: ComponentReport, h: LabeledGraph, k: LabeledGraph
) -> tuple[Word, list[Word]]:
    """Double-coset representative g and generators of H meet gKg^-1.

    The fiber product must have been built from the based graphs of h and k.
    With (u, v) the component's base vertex and w_a, w_b basepoint paths to
    u and v, the representative is g = w_a * w_b^-1 and each spanning-tree
    loop word l of the component yields the generator w_a * l * w_a^-1.
    """
    if fp.left is not h or fp.right is not k:
        raise ValueError("fiber product was not built from these based graphs")
    u, v = fp.vertex_pair(comp.base_vertex)
    path_h, _ = _spanning_tree(h, h.basepoint)
    path_k, _ = _spanning_tree(k, k.basepoint)
    w_a = path_h[u]
    w_b = path_k[v]
    g = concat(w_a, invert(w_b))
    sub, renum = induced_subgraph(fp.graph, comp.vertices)
    path_c, tree_edges = _spanning_tree(sub, renum[comp.base_vertex])
    gens = []
    for i, (o, t, lab) in enumerate(sub.edges):
        if i in tree_edges:
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


def intersection_number_euler(h: LabeledGraph, k: LabeledGraph) -> int:
    """Edges minus vertices plus contractible components of the product."""
    fp = fiber_product(h, k)
    return (
        len(fp.graph.edges) - fp.graph.num_vertices + fp.contractible_count()
    )


def intersection_number_cosets(h: LabeledGraph, k: LabeledGraph) -> int:
    """Sum of reduced ranks of the double-coset intersection subgroups.

    Each non-contractible component is converted back into an honest
    subgroup via its generators, so this route does not reuse the Euler
    arithmetic of the component itself.
    """
    fp = fiber_product(h, k)
    alphabet = Alphabet(h.rank)
    total = 0
    for comp in fp.components():
        if comp.contractible:
            continue
        _, gens = component_subgroup(fp, comp, h, k)
        total += reduced_rank(from_generators(gens, alphabet))
    return total
