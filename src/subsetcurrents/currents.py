"""Rational subset currents and the intersection functional.

A current is a finite nonnegative rational combination of subgroup
counting measures, stored in normalized form: every term is keyed by the
canonical core graph of the largest overgroup of finite index, with the
index folded into the coefficient.  Cylinder evaluations reduce to
occurrence counts of finite subtrees in core graphs, and the intersection
functional is assembled from edge counts, vertex counts and contractible
components of fiber products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .errors import MismatchBugError, NotConnectedError, SizeLimitError
from .fiber import fiber_product
from .stallings import (
    LabeledGraph,
    canonical_key,
    check_core_graph,
    core,
    graph_to_json_dict,
    induced_subgraph,
    minimal_covering_quotient,
)
from .words import Alphabet, Word, reduce_word

# Ceiling on how many round graphs any enumeration may produce.  Grade 2 in
# rank 2 (4067 graphs) fits; grade 2 in rank 3 does not, by design.
ROUND_GRAPH_CAP = 10000


class FiniteSubtree:
    """Finite subtree of the Cayley tree rooted at the identity.

    Stored as a prefix-closed set of reduced words; the words are the
    vertices and each nonempty word hangs off its longest proper prefix.
    """

    __slots__ = ("words", "_children", "_sorted")

    def __init__(self, words):
        ws = frozenset(tuple(w) for w in words)
        if () not in ws:
            raise ValueError("a subtree must contain the identity vertex")
        for w in ws:
            if reduce_word(w) != w:
                raise ValueError(f"vertex word {w} is not reduced")
            if w and w[:-1] not in ws:
                raise ValueError(f"vertex set is not prefix-closed at {w}")
        self.words = ws
        self._children = None
        self._sorted = None

    @classmethod
    def edge(cls, letter: int) -> "FiniteSubtree":
        return cls([(), (letter,)])

    @classmethod
    def singleton(cls) -> "FiniteSubtree":
        return cls([()])

    @property
    def num_vertices(self) -> int:
        return len(self.words)

    @property
    def num_edges(self) -> int:
        return len(self.words) - 1

    @property
    def nondegenerate(self) -> bool:
        return len(self.words) >= 2

    @property
    def depth(self) -> int:
        return max(len(w) for w in self.words)

    def sorted_words(self) -> list[Word]:
        if self._sorted is None:
            self._sorted = sorted(self.words, key=lambda w: (len(w), w))
        return self._sorted

    def children(self, w: Word) -> list[int]:
        if self._children is None:
            table: dict[Word, list[int]] = {v: [] for v in self.words}
            for v in self.words:
                if v:
                    table[v[:-1]].append(v[-1])
            for lst in table.values():
                lst.sort()
            self._children = table
        return self._children[w]

    def degree(self, w: Word) -> int:
        return len(self.children(w)) + (1 if w else 0)

    def __eq__(self, other):
        return isinstance(other, FiniteSubtree) and self.words == other.words

    def __hash__(self):
        return hash(self.words)

    def serialize(self, alphabet: Alphabet) -> str:
        from .words import format_word

        return ",".join(format_word(w, alphabet) for w in self.sorted_words())

    def __repr__(self):
        return f"FiniteSubtree({len(self.words)} vertices, depth {self.depth})"


def check_round_graph(tree: FiniteSubtree, grade: int) -> FiniteSubtree:
    """Return the tree if it is a round graph of the grade, else raise:
    a root of degree >= 2 and every leaf at distance exactly `grade`."""
    if grade < 1:
        raise ValueError("round graphs have grade at least 1")
    if tree.degree(()) < 2:
        raise ValueError("the root of a round graph has degree at least 2")
    if tree.depth != grade:
        raise ValueError(f"depth {tree.depth} does not match grade {grade}")
    for w in tree.words:
        if tree.degree(w) == 1 and len(w) != grade:
            raise ValueError(f"leaf {w} at distance {len(w)} != grade {grade}")
    return tree


def tree_intersection(t1: FiniteSubtree, t2: FiniteSubtree) -> FiniteSubtree:
    """Vertex-wise intersection; always contains the identity."""
    return FiniteSubtree(t1.words & t2.words)


def neighborhood_tree(graph: LabeledGraph, v: int, r: int) -> FiniteSubtree:
    """The subtree of reduced words of length <= r readable from v.

    The graph must be folded with all degrees >= 2 (a core graph), which
    makes the result a round graph of grade exactly r.
    """
    if r < 1:
        raise ValueError("neighborhood radius must be at least 1")
    words: set[Word] = {()}
    frontier: list[tuple[Word, int]] = [((), v)]
    for _ in range(r):
        nxt = []
        for w, u in frontier:
            for s, lst in graph.germs(u).items():
                if w and s == -w[-1]:
                    continue
                nw = w + (s,)
                words.add(nw)
                nxt.append((nw, lst[0][0]))
        frontier = nxt
    return check_round_graph(FiniteSubtree(words), r)


def neighborhood_profile(graph: LabeledGraph, r: int) -> dict[FiniteSubtree, int]:
    """How many vertices of the graph see each grade-r neighborhood tree."""
    profile: dict[FiniteSubtree, int] = {}
    for v in range(graph.num_vertices):
        t = neighborhood_tree(graph, v, r)
        profile[t] = profile.get(t, 0) + 1
    return profile


def count_round_graphs(r: int, alphabet: Alphabet) -> int:
    """Closed-form count of round graphs of grade r over the alphabet."""
    if r < 1:
        raise ValueError("grade must be at least 1")
    m = 2 * alphabet.rank
    g = 1
    for _ in range(r - 1):
        g = (1 + g) ** (m - 1) - 1
    return (1 + g) ** m - 1 - m * g


def enumerate_round_graphs(
    r: int, alphabet: Alphabet, cap: int = ROUND_GRAPH_CAP
) -> list[FiniteSubtree]:
    """All round graphs of grade r, in a deterministic order."""
    total = count_round_graphs(r, alphabet)
    if total > cap:
        raise SizeLimitError(
            f"{total} round graphs of grade {r} at rank {alphabet.rank} "
            f"exceed the cap of {cap}"
        )
    signed = alphabet.signed_letters()

    def grow(w: Word, remaining: int) -> list[frozenset[Word]]:
        if remaining == 0:
            return [frozenset({w})]
        options = [s for s in signed if s != -w[-1]]
        out = []
        for size in range(1, len(options) + 1):
            for subset in combinations(options, size):
                branches = [grow(w + (s,), remaining - 1) for s in subset]
                for combo in product(*branches):
                    out.append(frozenset({w}).union(*combo))
        return out

    trees: list[FiniteSubtree] = []
    for size in range(2, len(signed) + 1):
        for subset in combinations(signed, size):
            branches = [grow((s,), r - 1) for s in subset]
            for combo in product(*branches):
                trees.append(
                    check_round_graph(FiniteSubtree(frozenset({()}).union(*combo)), r)
                )
    if len(trees) != total:
        raise MismatchBugError(
            f"enumerated {len(trees)} round graphs but the formula says {total}"
        )
    return trees


def occurrence_count(tree: FiniteSubtree, graph: LabeledGraph) -> int:
    """Number of vertices of the graph at which the subtree occurs.

    An occurrence maps vertex words to graph vertices by reading labels,
    and must match degrees exactly at every interior vertex of the tree
    (degree above 1), so the tree is cut out locally, not just immersed.
    """
    if not tree.nondegenerate:
        raise ValueError("occurrences are counted for subtrees with an edge")
    ws = tree.sorted_words()
    interior = [w for w in ws if tree.degree(w) > 1]
    count = 0
    for v in range(graph.num_vertices):
        image: dict[Word, int] = {(): v}
        ok = True
        for w in ws[1:]:
            tgt = graph.step(image[w[:-1]], w[-1])
            if tgt is None:
                ok = False
                break
            image[w] = tgt
        if not ok:
            continue
        if all(graph.degree(image[w]) == tree.degree(w) for w in interior):
            count += 1
    return count


class RationalCurrent:
    """Normalized finite combination of subgroup counting measures."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[bytes, tuple[Fraction, LabeledGraph]]):
        ranks = {g.rank for _, g in terms.values()}
        if len(ranks) > 1:
            raise ValueError("terms of a current must share one ambient rank")
        for coeff, _ in terms.values():
            if coeff <= 0:
                raise ValueError("normalized terms carry positive coefficients")
        self._terms = dict(terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def rank(self) -> int | None:
        for _, g in self._terms.values():
            return g.rank
        return None

    def terms(self) -> list[tuple[Fraction, LabeledGraph]]:
        return [self._terms[k] for k in sorted(self._terms)]

    def coefficient(self, key: bytes) -> Fraction:
        return self._terms.get(key, (Fraction(0), None))[0]

    def __add__(self, other: "RationalCurrent") -> "RationalCurrent":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.rank != other.rank:
            raise ValueError("cannot add currents of different ambient ranks")
        merged = dict(self._terms)
        for key, (coeff, g) in other._terms.items():
            if key in merged:
                merged[key] = (merged[key][0] + coeff, merged[key][1])
            else:
                merged[key] = (coeff, g)
        return RationalCurrent(merged)

    def scale(self, q) -> "RationalCurrent":
        q = Fraction(q)
        if q < 0:
            raise ValueError("currents only admit nonnegative scaling")
        if q == 0:
            return RationalCurrent({})
        return RationalCurrent(
            {k: (coeff * q, g) for k, (coeff, g) in self._terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, RationalCurrent):
            return NotImplemented
        return {k: c for k, (c, _) in self._terms.items()} == {
            k: c for k, (c, _) in other._terms.items()
        }

    def __hash__(self):
        return hash(frozenset((k, c) for k, (c, _) in self._terms.items()))

    def __repr__(self):
        if self.is_zero:
            return "RationalCurrent(0)"
        parts = ", ".join(f"{c}*{g!r}" for c, g in self.terms())
        return f"RationalCurrent({parts})"


def normalize(terms) -> RationalCurrent:
    """Rewrite raw (coefficient, subgroup graph) terms in normalized form.

    Each subgroup contributes index-times the counting measure of its
    commensurator, so conjugate and commensurable inputs merge.  Idempotent.
    """
    acc: dict[bytes, tuple[Fraction, LabeledGraph]] = {}
    for coeff, g in terms:
        c = Fraction(coeff)
        if c < 0:
            raise ValueError("current coefficients must be nonnegative")
        if c == 0:
            continue
        cg = core(g)
        if not cg.is_connected():
            raise NotConnectedError("each term must be a single subgroup class")
        quotient, degree, _ = minimal_covering_quotient(cg)
        key = canonical_key(quotient)
        if key in acc:
            acc[key] = (acc[key][0] + c * degree, acc[key][1])
        else:
            acc[key] = (c * degree, check_core_graph(quotient))
    return RationalCurrent(acc)


def counting_current(g) -> RationalCurrent:
    """The counting current of a subgroup, in normalized form."""
    return normalize([(Fraction(1), g)])


def zero_current() -> RationalCurrent:
    return RationalCurrent({})


def eval_cylinder(mu: RationalCurrent, tree: FiniteSubtree) -> Fraction:
    """Measure of the cylinder of subsets whose local picture is the tree."""
    if not tree.nondegenerate:
        raise ValueError("cylinder evaluation needs a subtree with an edge")
    total = Fraction(0)
    for coeff, g in mu.terms():
        total += coeff * occurrence_count(tree, g)
    return total


def functional_E(mu: RationalCurrent) -> Fraction:
    """Sum of the single-edge cylinder values, one per generator."""
    if mu.is_zero:
        return Fraction(0)
    alphabet = Alphabet(mu.rank)
    return sum(
        (eval_cylinder(mu, FiniteSubtree.edge(i)) for i in alphabet.letters()),
        Fraction(0),
    )


def functional_V(mu: RationalCurrent) -> Fraction:
    """Sum of the grade-1 round-graph cylinder values.

    The sum runs only over the grade-1 trees that some term of mu shows,
    the union of the grade-1 neighborhood profiles of its core graphs.
    Every other round graph has occurrence count 0 in every term: an
    occurrence of a grade-1 round graph at v needs its letters to be
    exactly the departures at v, which makes it the neighborhood tree of v.
    Leaving those terms out changes no exact value, and the cost follows
    the vertices of mu rather than the 2^(2N) - 1 - 2N round graphs of the
    rank.  Each term is still a cylinder count from occurrence_count.
    """
    observed: set[FiniteSubtree] = set()
    for _, g in mu.terms():
        observed.update(neighborhood_profile(g, 1))
    return sum((eval_cylinder(mu, t) for t in observed), Fraction(0))


def functional_rk(mu: RationalCurrent) -> Fraction:
    """Reduced-rank functional: edges minus vertices, continuously extended."""
    return functional_E(mu) - functional_V(mu)


def c_hat(mu: RationalCurrent, nu: RationalCurrent) -> Fraction:
    """Bilinear count of contractible fiber-product components."""
    if mu.is_zero or nu.is_zero:
        return Fraction(0)
    if mu.rank != nu.rank:
        raise ValueError("currents live over different ambient ranks")
    total = Fraction(0)
    for c1, g1 in mu.terms():
        for c2, g2 in nu.terms():
            total += c1 * c2 * fiber_product(g1, g2).contractible_count()
    return total


def _component_matches_tree(
    graph: LabeledGraph, vertices: list[int], num_edges: int, tree: FiniteSubtree
) -> bool:
    """Unbased label-isomorphism test between a tree component and a subtree."""
    if len(vertices) != tree.num_vertices or num_edges != tree.num_edges:
        return False
    sub, _ = induced_subgraph(graph, vertices)
    ws = tree.sorted_words()
    for start in range(sub.num_vertices):
        image: dict[Word, int] = {(): start}
        ok = True
        for w in ws[1:]:
            tgt = sub.step(image[w[:-1]], w[-1])
            if tgt is None:
                ok = False
                break
            image[w] = tgt
        if ok and len(set(image.values())) == sub.num_vertices:
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
        and _component_matches_tree(fp.graph, comp.vertices, comp.num_edges, tree)
    )
    trees_h = [neighborhood_tree(h, v, r + 1) for v in range(h.num_vertices)]
    trees_k = [neighborhood_tree(k, v, r + 1) for v in range(k.num_vertices)]
    paired = sum(
        1
        for t1 in trees_h
        for t2 in trees_k
        if tree_intersection(t1, t2) == tree
    )
    if direct != paired:
        raise MismatchBugError(
            f"component isomorphism count {direct} != vertex-pair count {paired} "
            f"for tree {sorted(tree.words)}"
        )
    return direct


def intersection_functional_N(mu: RationalCurrent, nu: RationalCurrent) -> Fraction:
    """The intersection functional: edge pairing minus vertex pairing plus
    the contractible correction."""
    if mu.is_zero or nu.is_zero:
        return Fraction(0)
    if mu.rank != nu.rank:
        raise ValueError("currents live over different ambient ranks")
    alphabet = Alphabet(mu.rank)
    edge_pairing = sum(
        (
            eval_cylinder(mu, FiniteSubtree.edge(i))
            * eval_cylinder(nu, FiniteSubtree.edge(i))
            for i in alphabet.letters()
        ),
        Fraction(0),
    )
    vertex_pairing = functional_V(mu) * functional_V(nu)
    return edge_pairing - vertex_pairing + c_hat(mu, nu)


def pushforward_I(mu: RationalCurrent, nu: RationalCurrent) -> RationalCurrent:
    """Current-valued pairing: one counting term per essential component of
    each fiber product, i.e. per double coset with nontrivial intersection."""
    if mu.is_zero or nu.is_zero:
        return zero_current()
    if mu.rank != nu.rank:
        raise ValueError("currents live over different ambient ranks")
    raw: list[tuple[Fraction, LabeledGraph]] = []
    for c1, g1 in mu.terms():
        for c2, g2 in nu.terms():
            fp = fiber_product(g1, g2)
            for comp in fp.components():
                if comp.contractible:
                    continue
                sub, _ = induced_subgraph(fp.graph, comp.vertices)
                raw.append((c1 * c2, core(sub)))
    return normalize(raw)


def current_to_json_dict(mu: RationalCurrent) -> list[dict]:
    return [
        {"coefficient": str(coeff), "graph": graph_to_json_dict(g)}
        for coeff, g in mu.terms()
    ]
