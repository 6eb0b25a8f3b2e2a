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

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from .errors import MismatchBugError, NotConnectedError, SizeLimitError
from .fiber import _product_edges, fiber_product
from .stallings import (
    LabeledGraph,
    UnionFind,
    _alphabet,
    _keyed_quotient,
    _vertex,
    check_core_graph,
    core,
    graph_to_json_dict,
)
from .words import Alphabet, Word, _int, format_word

# Ceiling on how many round graphs any enumeration may produce.  Grade 2 in
# rank 2 (4067 graphs) fits; grade 2 in rank 3 does not, by design.
ROUND_GRAPH_CAP = 10000


class FiniteSubtree:
    """Finite subtree of the Cayley tree rooted at the identity.

    Given as a prefix-closed set of reduced words; the words are the
    vertices and each nonempty word hangs off its longest proper prefix.
    It is built once into the form its readers use: the distinct words in
    (length, word) order, each word after the root as a (parent position,
    letter) step, and the degree at each position.
    """

    __slots__ = ("words", "_sorted", "_steps", "_degrees")

    def __init__(self, words):
        try:
            ws = frozenset(tuple(w) for w in words)
        except TypeError as exc:
            raise ValueError(f"vertex words must be tuples of int letters: {exc}") from None
        if () not in ws:
            raise ValueError("a subtree must contain the identity vertex")
        for w in ws:
            # Prefix closure makes each letter, and each adjacent pair, the
            # end of some word, so checking the ends checks every word whole.
            if not w:
                continue
            if type(w[-1]) is not int or not w[-1]:
                raise ValueError(f"vertex word {w} ends in {w[-1]!r}, not a nonzero int letter")
            if len(w) > 1 and w[-2] == -w[-1]:
                raise ValueError(f"vertex word {w} is not reduced")
            if w[:-1] not in ws:
                raise ValueError(f"vertex set is not prefix-closed at {w}")
        self.words = ws
        self._sorted = sorted(ws, key=lambda w: (len(w), w))
        position = {w: i for i, w in enumerate(self._sorted)}
        self._steps = [(position[w[:-1]], w[-1]) for w in self._sorted[1:]]
        # every word after the root meets its parent and each of its children
        self._degrees = [0] + [1] * len(self._steps)
        for p, _ in self._steps:
            self._degrees[p] += 1

    @classmethod
    def edge(cls, letter: int) -> "FiniteSubtree":
        return cls([(), (letter,)])

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
        return len(self._sorted[-1])

    def sorted_words(self) -> list[Word]:
        return self._sorted

    def degree(self, w: Word) -> int:
        return self._degrees[self._sorted.index(w)]

    def __eq__(self, other):
        return isinstance(other, FiniteSubtree) and self.words == other.words

    def __hash__(self):
        return hash(self.words)

    def serialize(self, alphabet: Alphabet) -> str:
        return ",".join(format_word(w, alphabet) for w in self._sorted)

    def __repr__(self):
        return f"FiniteSubtree({len(self.words)} vertices, depth {self.depth})"


def check_round_graph(tree: FiniteSubtree, grade: int) -> FiniteSubtree:
    """Return the tree if it is a round graph of the grade, else raise:
    a root of degree >= 2 and every leaf at distance exactly `grade`."""
    if _int(grade, "grade") < 1:
        raise ValueError("round graphs have grade at least 1")
    if tree._degrees[0] < 2:
        raise ValueError("the root of a round graph has degree at least 2")
    if tree.depth != grade:
        raise ValueError(f"depth {tree.depth} does not match grade {grade}")
    for w, d in zip(tree._sorted, tree._degrees):
        if d == 1 and len(w) != grade:
            raise ValueError(f"leaf {w} at distance {len(w)} != grade {grade}")
    return tree


def neighborhood_tree(graph: LabeledGraph, v: int, r: int) -> FiniteSubtree:
    """The subtree of reduced words of length <= r readable from v.

    The graph must be folded with all degrees >= 2 (a core graph), which
    makes the result a round graph of grade exactly r.
    """
    if _int(r, "neighborhood radius") < 1:
        raise ValueError("neighborhood radius must be at least 1")
    _vertex(graph, v)
    moves, places = graph.moves(), graph._places
    signed = _alphabet(graph.rank)._signed
    words: set[Word] = {()}
    frontier: list[tuple[Word, int]] = [((), v)]
    for _ in range(r):
        nxt = []
        for w, u in frontier:
            row = moves[u]
            for p in places[u]:
                s = signed[p]
                if w and s == -w[-1]:
                    continue
                nw = w + (s,)
                words.add(nw)
                nxt.append((nw, row[p]))
        frontier = nxt
    return check_round_graph(FiniteSubtree(words), r)


def neighborhood_profile(graph: LabeledGraph, r: int) -> dict[FiniteSubtree, int]:
    """How many vertices of the graph see each grade-r neighborhood tree."""
    return dict(Counter(neighborhood_tree(graph, v, r) for v in range(graph.num_vertices)))


def count_round_graphs(r: int, alphabet: Alphabet) -> int:
    """Closed-form count of round graphs of grade r over the alphabet."""
    if _int(r, "grade") < 1:
        raise ValueError("grade must be at least 1")
    m = 2 * alphabet.rank
    g = 1
    for _ in range(r - 1):
        g = (1 + g) ** (m - 1) - 1
    return (1 + g) ** m - 1 - m * g


def enumerate_round_graphs(r: int, alphabet: Alphabet) -> list[FiniteSubtree]:
    """All round graphs of grade r, in a deterministic order."""
    total = count_round_graphs(r, alphabet)
    if total > ROUND_GRAPH_CAP:
        raise SizeLimitError(
            f"{total} round graphs of grade {r} at rank {alphabet.rank} "
            f"exceed the cap of {ROUND_GRAPH_CAP}"
        )
    signed = alphabet.signed_letters()

    def grow(w: Word, remaining: int, fewest: int) -> list[frozenset[Word]]:
        """Every way to hang at least `fewest` branches of depth `remaining`
        off w, each a word set holding w."""
        if remaining == 0:
            return [frozenset({w})]
        options = [s for s in signed if not w or s != -w[-1]]
        out = []
        for size in range(fewest, len(options) + 1):
            for subset in combinations(options, size):
                branches = [grow(w + (s,), remaining - 1, 1) for s in subset]
                for combo in product(*branches):
                    out.append(frozenset({w}).union(*combo))
        return out

    trees = [check_round_graph(FiniteSubtree(ws), r) for ws in grow((), r, 2)]
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
    The tree is read in its stored form: each word after the root is one
    (parent position, letter) step, read at the letter's place in the
    `moves()` rows, and its image at a vertex is one list entry; the stored
    degrees name the interior positions, and the lengths of the graph's
    `_places` (filled with its `moves()` rows) are compared with them.
    """
    if not tree.nondegenerate:
        raise ValueError("occurrences are counted for subtrees with an edge")
    if max(abs(s) for _, s in tree._steps) > graph.rank:
        raise ValueError(f"subtree letters exceed the graph's rank {graph.rank}")
    place = _alphabet(graph.rank)._place
    steps = [(i, place[s]) for i, s in tree._steps]
    interior = [(i, d) for i, d in enumerate(tree._degrees) if d > 1]
    moves, places = graph.moves(), graph._places
    count = 0
    for v in range(graph.num_vertices):
        image = [v]
        for p, s in steps:
            t = moves[image[p]][s]
            if t is None:
                break
            image.append(t)
        else:
            if all(len(places[image[i]]) == d for i, d in interior):
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
        self._terms = dict(sorted(terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def rank(self) -> int | None:
        for _, g in self._terms.values():
            return g.rank
        return None

    def terms(self) -> list[tuple[Fraction, LabeledGraph]]:
        return list(self._terms.values())

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
        q = _exact(q)
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


def _exact(q) -> Fraction:
    """A coefficient as a Fraction: an int that is not a bool, or a Fraction.
    Anything else is refused rather than converted: a float 0.1 is not 1/10,
    and neither a bool, a string nor a Decimal is a coefficient."""
    if isinstance(q, Fraction) or (isinstance(q, int) and not isinstance(q, bool)):
        return Fraction(q)
    raise ValueError(f"coefficients must be exact (int or Fraction), got {type(q).__name__} {q!r}")


def normalize(terms) -> RationalCurrent:
    """Rewrite raw (coefficient, subgroup graph) terms in normalized form.

    Each subgroup contributes index-times the counting measure of its
    commensurator, so conjugate and commensurable inputs merge.  Idempotent.
    """
    try:
        terms = iter(terms)
    except TypeError:
        raise ValueError(f"terms must be (coefficient, graph) pairs, got {terms!r}") from None
    acc: dict[bytes, tuple[Fraction, LabeledGraph]] = {}
    for term in terms:
        if not (isinstance(term, (tuple, list)) and len(term) == 2):
            raise ValueError(f"a term is a (coefficient, graph) pair, got {term!r}")
        coeff, g = term
        if not isinstance(g, LabeledGraph):
            raise ValueError(f"a term's graph must be a LabeledGraph, got {g!r}")
        c = _exact(coeff)
        if c < 0:
            raise ValueError("current coefficients must be nonnegative")
        if c == 0:
            continue
        if not g.is_connected():
            raise NotConnectedError("each term must be a single subgroup class")
        quotient, degree, _, key = _keyed_quotient(core(g))
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
    return sum((coeff * occurrence_count(tree, g) for coeff, g in mu.terms()), Fraction(0))


def _edge_cylinders(mu: RationalCurrent) -> list[Fraction]:
    """The single-edge cylinder values, one per generator; none for zero.

    The tree of one i-labelled edge occurs at v exactly when an i-edge
    leaves v, so each term adds c times its count of i-labelled edges, read
    in one pass over its edges.  With the `moves()` call that refuses an
    unfolded term, that is O(V + E) per term.
    """
    if mu.is_zero:
        return []
    cylinders = [Fraction(0)] * mu.rank
    for c, g in mu.terms():
        g.moves()
        for label, n in Counter(lab for _, _, lab in g.edges).items():
            cylinders[label - 1] += c * n
    return cylinders


def functional_E(mu: RationalCurrent) -> Fraction:
    """Sum of the single-edge cylinder values, one per generator."""
    return sum(_edge_cylinders(mu), Fraction(0))


def functional_V(mu: RationalCurrent) -> Fraction:
    """Sum of the grade-1 round-graph cylinder values, O(V + E) per term.

    Every vertex of a core graph roots exactly one occurrence of one grade-1
    round graph, the star on its departures: an occurrence of a star at v
    needs the star's letters to be exactly the departures at v.  So a
    term's grade-1 cylinder values are the histogram of its departure sets
    and their sum is its vertex count, and V is the sum of c times V(g).
    No tree is built and no occurrence is counted.  A star is a round graph
    exactly when its root has degree at least 2, so a term with a vertex of
    degree below 2 raises, once every term's `moves()` has refused an
    unfolded one.
    """
    for _, g in mu.terms():
        g.moves()
    if any(min(map(len, g._places), default=2) < 2 for _, g in mu.terms()):
        raise ValueError("the root of a round graph has degree at least 2")
    return sum((c * g.num_vertices for c, g in mu.terms()), Fraction(0))


def functional_rk(mu: RationalCurrent) -> Fraction:
    """Reduced-rank functional: edges minus vertices, continuously extended."""
    return functional_E(mu) - functional_V(mu)


def _term_pairs(mu: RationalCurrent, nu: RationalCurrent) -> list[tuple]:
    """(c1 * c2, g1, g2) over every pair of terms; none when either current
    is zero, and ValueError when two nonzero currents differ in rank."""
    if mu.is_zero or nu.is_zero:
        return []
    if mu.rank != nu.rank:
        raise ValueError("currents live over different ambient ranks")
    return [(c1 * c2, g1, g2) for c1, g1 in mu.terms() for c2, g2 in nu.terms()]


def c_hat(mu: RationalCurrent, nu: RationalCurrent) -> Fraction:
    """Bilinear count of contractible fiber-product components.

    For each pair of terms it merges the endpoints of the product edges
    over all V1 * V2 vertex pairs in one union pass, then counts the roots
    whose component has V - E = 1, the trees; an isolated pair is such a
    root.  No product graph or component report is built, so this route
    shares no component classification with the cosets route.
    """
    total = Fraction(0)
    for c, g1, g2 in _term_pairs(mu, nu):
        edges = _product_edges(g1, g2)
        uf = UnionFind(g1.num_vertices * g2.num_vertices)
        uf.union_edges(edges)
        roots = uf.roots()
        euler = [0] * len(roots)
        for r in roots:
            euler[r] += 1
        for o, _, _ in edges:
            euler[roots[o]] -= 1
        total += c * euler.count(1)
    return total


def intersection_functional_N(mu: RationalCurrent, nu: RationalCurrent) -> Fraction:
    """The intersection functional: edge pairing minus vertex pairing plus
    the contractible correction."""
    if not _term_pairs(mu, nu):
        return Fraction(0)
    edge_pairing = sum(
        (a * b for a, b in zip(_edge_cylinders(mu), _edge_cylinders(nu))), Fraction(0)
    )
    vertex_pairing = functional_V(mu) * functional_V(nu)
    return edge_pairing - vertex_pairing + c_hat(mu, nu)


def pushforward_I(mu: RationalCurrent, nu: RationalCurrent) -> RationalCurrent:
    """Current-valued pairing: one counting term per essential component of
    each fiber product, i.e. per double coset with nontrivial intersection."""
    raw: list[tuple[Fraction, LabeledGraph]] = []
    for c, g1, g2 in _term_pairs(mu, nu):
        fp = fiber_product(g1, g2)
        raw.extend(
            (c, fp._component_graph(comp)) for comp in fp.components() if not comp.contractible
        )
    return normalize(raw)


def current_to_json_dict(mu: RationalCurrent) -> list[dict]:
    return [
        {"coefficient": str(coeff), "graph": graph_to_json_dict(g)}
        for coeff, g in mu.terms()
    ]
