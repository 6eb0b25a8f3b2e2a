"""Core graphs of finitely generated subgroups of a free group.

A subgroup is represented by a finite folded graph whose edges carry
generator labels, together with an optional basepoint.  Folding, coring,
membership, canonical forms, relative index and covering constructions all
live here.  Vertices are always integers 0..n-1; renumbering happens on
every rebuild so downstream code can treat vertex ids as dense indices.
"""

from __future__ import annotations

import functools
import random

from .errors import (
    EmptyCoreError,
    MismatchBugError,
    NotConnectedError,
    NotSubgroupError,
    RetryLimitError,
    SizeLimitError,
    TrivialSubgroupError,
    WordFormatError,
)
from .words import Alphabet, Word, _int, concat, cyclic_reduce, invert, parse_word, reduce_word

Edge = tuple[int, int, int]  # (origin, terminus, positive label)

# Most slots a departure table may hold: 8 bytes a slot keeps one graph's
# `moves()` rows under 128 MiB.  A row has 2N slots, so a rank-2 graph may
# have about 4.2 million vertices and a rank-4096 graph 2048.
MAX_TABLE_SLOTS = 2**24

# Draws `random_finite_index_cover` makes before it gives up on connectivity.
COVER_TRIES = 500


class UnionFind:
    """Disjoint sets over 0..n-1 whose every root is its class's smallest
    member: `union` and `union_edges` keep the smaller root, `find`
    compresses paths to it and `union_edges` halves them, so every parent
    pointer points to a vertex no larger than itself."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int | None:
        """Merge under the smaller root; return the root absorbed, or None."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return rb

    def union_edges(self, edges) -> None:
        """Merge the endpoints of every (origin, terminus, label) edge in one
        inline loop.  Path halving keeps parents pointing downward, and the
        smaller root is kept, as in `union`."""
        parent = self.parent
        for a, b, _ in edges:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b

    def roots(self) -> list[int]:
        """Per element, its root, in place.  Parents point downward, so in
        one ascending pass each parent's entry is already its root."""
        parent = self.parent
        for v, p in enumerate(parent):
            parent[v] = parent[p]
        return parent


@functools.cache
def _alphabet(rank: int) -> Alphabet:
    """One `Alphabet` per rank, for the functions that only hold a graph."""
    return Alphabet(rank)


def _vertex(graph: LabeledGraph, v) -> int:
    """v, if it is a vertex of the graph; else a ValueError that names it."""
    if not 0 <= _int(v, "vertex") < graph.num_vertices:
        raise ValueError(f"vertex {v} out of range 0..{graph.num_vertices - 1}")
    return v


def _edge_tuple(e) -> tuple:
    """An edge given as a list or a tuple subclass, as a plain tuple; any
    other value is not an edge.  Plain tuples skip this call."""
    if not isinstance(e, (list, tuple)):
        raise ValueError(f"edge {e!r} is not [origin, terminus, label]")
    return tuple(e)


class LabeledGraph:
    """Finite multigraph over the rank-N rose.  Treated as immutable."""

    __slots__ = ("rank", "num_vertices", "edges", "basepoint", "_moves", "_places", "_components")

    def __init__(self, rank: int, num_vertices: int, edges, basepoint: int | None = None):
        _alphabet(_int(rank, "rank"))  # refuses a rank below 2 or above MAX_RANK
        if _int(num_vertices, "num_vertices") < 0:
            raise ValueError(f"num_vertices must be nonnegative, got {num_vertices}")
        try:
            edges = iter(edges)
        except TypeError:
            raise ValueError(f"edges must be an iterable of edges, got {edges!r}") from None
        edges = [e if type(e) is tuple else _edge_tuple(e) for e in edges]
        for e in edges:
            try:
                o, t, lab = e
            except ValueError:
                raise ValueError(f"edge {e!r} is not [origin, terminus, label]") from None
            if not type(o) is type(t) is type(lab) is int:
                raise ValueError(f"edge {(o, t, lab)!r} must have integer entries")
            if not (0 <= o < num_vertices and 0 <= t < num_vertices):
                raise ValueError(f"edge ({o},{t},{lab}) out of vertex range")
            if not (1 <= lab <= rank):
                raise ValueError(f"edge label {lab} out of range for rank {rank}")
        if basepoint is not None and not (0 <= _int(basepoint, "basepoint") < num_vertices):
            raise ValueError(f"basepoint {basepoint} out of range")
        self.rank = rank
        self.num_vertices = num_vertices
        self.edges: tuple[Edge, ...] = tuple(sorted(edges))
        self.basepoint = basepoint
        self._moves = None
        self._places = None
        self._components = None

    def _rebased(self, basepoint: int | None) -> LabeledGraph:
        """This graph based at `basepoint`, or unbased for None, refused as
        the constructor refuses it.  The copy shares the edges and every
        cached table, none of which depends on the basepoint, so neither
        graph builds them again."""
        if basepoint is not None and not (0 <= _int(basepoint, "basepoint") < self.num_vertices):
            raise ValueError(f"basepoint {basepoint} out of range")
        if basepoint == self.basepoint:
            return self
        out = object.__new__(LabeledGraph)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.basepoint = basepoint
        return out

    def is_folded(self) -> bool:
        """No two edges share (origin, label) or (terminus, label), which is
        exactly when `moves()` can build its table.  A table above
        `MAX_TABLE_SLOTS` is refused, not read as unfolded."""
        try:
            self.moves()
        except SizeLimitError:
            raise
        except ValueError:
            return False
        return True

    def moves(self) -> list[list[int | None]]:
        """Per vertex, a row of 2N slots in `signed_letters()` order: the
        departure by +i at place 2i - 2 and by -i at place 2i - 1, so a
        letter's inverse sits at its place ^ 1.  A slot holds the target,
        or None where the vertex has no such departure.  So `len(row)` is
        2N, not the degree; `Alphabet._place` takes a signed label to its
        place and `Alphabet._signed` a place back to its label, and
        `dict(zip(alphabet.signed_letters(), row))` reads a row by label.

        The same pass fills `_places`: per vertex, the places of its
        departures in edge order, so its length is the degree.  A reader
        that visits every departure of a vertex iterates these, and indexes
        the row only for their targets, so its cost follows the degrees,
        not the rank.  Computed once.

        Every departure reader goes through here, so here is where unfolded
        graphs are refused: an edge whose (origin, label) or (terminus,
        label) an earlier edge already took.  A table of more than
        `MAX_TABLE_SLOTS` slots is refused before it is allocated."""
        if self._moves is None:
            slots = self.num_vertices * 2 * self.rank
            if slots > MAX_TABLE_SLOTS:
                raise SizeLimitError(
                    f"a departure table of {self.num_vertices} vertices at rank {self.rank} "
                    f"has {slots} slots, above the budget of {MAX_TABLE_SLOTS}"
                )
            table = [[None] * (2 * self.rank) for _ in range(self.num_vertices)]
            places: list[list[int]] = [[] for _ in range(self.num_vertices)]
            place = _alphabet(self.rank)._place
            for o, t, lab in self.edges:
                out, back = table[o], table[t]
                p = place[lab]
                if out[p] is not None or back[p ^ 1] is not None:
                    raise ValueError("following departures needs a folded graph; fold it first")
                out[p] = t
                back[p ^ 1] = o
                places[o].append(p)
                places[t].append(p ^ 1)
            self._places = places
            self._moves = table
        return self._moves

    def component_ids(self) -> tuple[int, ...]:
        """Per vertex, the smallest vertex of its component; computed once."""
        if self._components is None:
            uf = UnionFind(self.num_vertices)
            uf.union_edges(self.edges)
            self._components = tuple(uf.roots())
        return self._components

    def is_connected(self) -> bool:
        """One component; a graph with no vertices has none.  A component
        id is the smallest vertex of its component, so every id is 0."""
        ids = self.component_ids()
        return bool(ids) and not any(ids)

    @property
    def graph(self) -> "LabeledGraph":
        """The graph itself, read-only.  Kept because the benchmark harness
        (perfbench/ops.py) still reads `h.graph` off subgroup graphs."""
        return self

    def __repr__(self):
        return f"LabeledGraph(V={self.num_vertices}, E={len(self.edges)}, rank={self.rank})"


class _Folder:
    """A graph folded as it is read in (Stallings 1983; Kapovich-Myasnikov 2002).

    A union-find over the vertices and, per class root, a dict from signed
    label to a target.  `arc` follows existing departures before it makes
    vertices, and makes them in the order a wedge of the same words would;
    a merge keeps the smaller root, so `graph` numbers each class by its
    smallest wedge vertex, exactly as folding the wedge would.

    The rows stay dicts, unlike the lists of `LabeledGraph.moves()`: every
    spelled vertex gets a fresh row and every merge moves a row, so a row
    of 2N slots would be allocated and scanned where a dict holds the
    one or two departures a spelled vertex has.  A version with list rows
    here ran about 1.5% slower on the `scan` benchmark workload and 2% on
    `big-core`.
    """

    def __init__(self, n: int, edges=()):
        self.uf = UnionFind(n)
        self.moves: list[dict[int, int]] = [{} for _ in range(n)]
        for o, t, lab in edges:
            self.arc(o, t, (lab,))

    def _merge(self, clashes: list[tuple[int, int]]) -> None:
        """Germ-merge worklist: a clash unions two classes and merges the
        loser's dict into the root's, queueing the clashes that creates.  A
        union moves at most 2 * rank entries, so folding is near-linear."""
        union, parent, moves = self.uf.union, self.uf.parent, self.moves
        while clashes:
            other = union(*clashes.pop())
            if other is not None:
                root = parent[other]
                for s, w in moves[other].items():
                    prev = moves[root].setdefault(s, w)
                    if prev != w:
                        clashes.append((prev, w))
                moves[other] = {}

    def _read(self, v: int, letters) -> tuple[int, int]:
        """Follow the letters from v while departures exist; return the
        vertex reached and the number of letters read."""
        find, moves = self.uf.find, self.moves
        v, n = find(v), 0
        for x in letters:
            t = moves[v].get(x)
            if t is None:
                break
            v, n = find(t), n + 1
        return v, n

    def _spell(self, v: int, word: Word, end: int | None = None) -> int:
        """Hang fresh vertices spelling the word off v, the last letter
        landing on `end` when given; return the last vertex."""
        parent, moves = self.uf.parent, self.moves
        fresh = len(word) - (end is not None)
        for k, x in enumerate(word):
            w = len(parent) if k < fresh else end
            if k < fresh:
                parent.append(w)
                moves.append({})
            moves[v][x] = w
            moves[w][-x] = v
            v = w
        return v

    def arc(self, start: int, end: int, word: Word) -> None:
        """Join start to end by the reduced word: read it forward from start
        and its unread rest backward from end, and spell only the middle,
        as its conjugator and then a cyclically reduced loop when it closes
        on one vertex.  A word read all the way merges its two ends."""
        u, i = self._read(start, word)
        w, back = self._read(end, (-x for x in reversed(word[i:])))
        j = len(word) - back
        if j == i:
            self._merge([(u, w)])
            return
        middle = word[i:j]
        if u == w:
            middle, conj = cyclic_reduce(middle)
            u = w = self._spell(u, conj)
        self._spell(u, middle, end=w)

    def graph(self, rank: int, basepoint: int | None) -> LabeledGraph:
        """The folded graph, classes numbered by ascending root."""
        find, parent = self.uf.find, self.uf.parent
        renum = {r: i for i, r in enumerate(v for v, p in enumerate(parent) if p == v)}
        edges = [(i, renum[find(t)], s) for r, i in renum.items()
                 for s, t in self.moves[r].items() if s > 0]
        bp = None if basepoint is None else renum[find(basepoint)]
        return LabeledGraph(rank, len(renum), edges, basepoint=bp)


def fold(graph: LabeledGraph) -> LabeledGraph:
    """Identify same-label departures until no vertex has two of them.

    Each edge is read into a `_Folder` as a one-letter arc, and its merge
    worklist does the identifications.  The finest folded identification
    is unique, so the result does not depend on the order; classes are
    numbered by their smallest vertex and duplicate parallel edges collapse.
    """
    return _Folder(graph.num_vertices, graph.edges).graph(graph.rank, graph.basepoint)


def _prune(n: int, edges, keep: int | None = None) -> set[int]:
    """Iterated removal of degree <= 1 vertices other than `keep` from the
    graph on vertices 0..n-1 with the given (origin, terminus, label)
    edges.  Returns the surviving vertices."""
    ends: list[list[int]] = [[] for _ in range(n)]
    for o, t, _ in edges:
        ends[o].append(t)
        ends[t].append(o)
    # deg[v] counts the edges of v that are still alive; a vertex is
    # queued once, when its degree first drops to 1 or less, and its
    # degree becomes -1 when it is removed, which kills its last edge.
    deg = list(map(len, ends))
    queue = [v for v in range(n) if deg[v] <= 1 and v != keep]
    while queue:
        v = queue.pop()
        deg[v] = -1
        for u in ends[v]:
            d = deg[u]
            if d < 0:
                continue
            deg[u] = d - 1
            if d == 2 and u != keep:
                queue.append(u)
    return {v for v in range(n) if deg[v] >= 0}


def core_vertices(graph: LabeledGraph, keep: int | None = None) -> set[int]:
    """Vertices surviving iterated removal of degree <= 1 vertices."""
    return _prune(graph.num_vertices, graph.edges, keep)


def induced_subgraph(
    graph: LabeledGraph, vertices, basepoint: int | None = None
) -> tuple[LabeledGraph, dict[int, int]]:
    """Subgraph on the given vertices, renumbered; returns (graph, old->new map)."""
    order = sorted({_vertex(graph, v) for v in vertices})
    renum = {v: i for i, v in enumerate(order)}
    edges = [
        (renum[o], renum[t], lab)
        for o, t, lab in graph.edges
        if o in renum and t in renum
    ]
    bp = None if basepoint is None else renum[basepoint]
    return LabeledGraph(graph.rank, len(order), edges, basepoint=bp), renum


def _require_basepoint(graph: LabeledGraph, fn: str) -> None:
    """Based-only functions call this first: an unbased graph is a
    conjugacy class, not a subgroup."""
    if graph.basepoint is None:
        raise ValueError(f"{fn} needs a based graph, got one without a basepoint")


def _pruned(graph: LabeledGraph, keep: int | None) -> LabeledGraph:
    """The graph with its hanging trees pruned, sparing `keep` (None, or the
    basepoint, which it stays); the graph itself when nothing is pruned,
    since the renumbering would be the identity."""
    survivors = core_vertices(graph, keep=keep)
    if len(survivors) == graph.num_vertices:
        out = graph
    else:
        out, _ = induced_subgraph(graph, survivors, basepoint=keep)
    if not out.edges:
        raise EmptyCoreError("graph has no essential loop, so its core is empty")
    return out


def core(graph: LabeledGraph) -> LabeledGraph:
    """Unbased core: prune hanging trees, forget the basepoint.  When
    nothing is pruned, the core is `graph._rebased(None)`."""
    return _pruned(graph, None)._rebased(None)


def core_based(graph: LabeledGraph) -> LabeledGraph:
    """Core that spares the basepoint (plus the arc connecting it, if any)."""
    _require_basepoint(graph, "core_based")
    return _pruned(graph, graph.basepoint)


def check_core_graph(graph: LabeledGraph) -> LabeledGraph:
    """Return the graph if it is a core graph, else raise.

    Unbased, it is a subgroup up to conjugacy: folded, with every degree
    >= 2.  Based, it is the subgroup itself: folded, connected, with degree
    >= 2 away from the basepoint.
    """
    if not graph.edges:
        raise EmptyCoreError("empty graph does not represent a nontrivial subgroup")
    graph.moves()
    if graph.basepoint is not None and not graph.is_connected():
        raise NotConnectedError("based core graph must be connected")
    for v, places in enumerate(graph._places):
        if v != graph.basepoint and len(places) < 2:
            raise ValueError(f"non-basepoint vertex {v} has degree < 2")
    return graph


def from_generators(gens, alphabet: Alphabet) -> LabeledGraph:
    """The based core graph of <gens>, folded as the generators are read.

    Each reduced generator is read into the graph built so far as an `arc`
    from the basepoint back to itself, so what it shares with earlier
    generators costs reads and only the rest gets vertices; a conjugator
    c of c * r * c^-1 is spelled once, before the loop r.  Folding a wedge
    of reduced loops leaves no vertex of degree 1 but the basepoint, so
    nothing is pruned.  Every letter is checked before any is reduced, so
    a float `-1.0` cannot cancel a `1` (`WordFormatError`).
    """
    words = []
    for w in map(tuple, gens):
        alphabet.check_word(w)
        if w := reduce_word(w):
            words.append(w)
    if not words:
        raise TrivialSubgroupError("all generators reduce to the identity")
    folder = _Folder(1)
    for w in words:
        folder.arc(0, 0, w)
    return check_core_graph(folder.graph(alphabet.rank, 0))


def contains(h: LabeledGraph, w: Word) -> bool:
    """Does the word lie in the subgroup, i.e. read as a loop at the basepoint.
    A letter outside the graph's alphabet raises `WordFormatError`."""
    _require_basepoint(h, "contains")
    alphabet = _alphabet(h.rank)
    alphabet.check_word(w)
    moves, place = h.moves(), alphabet._place
    v = h.basepoint
    for x in reduce_word(w):
        v = moves[v][place[x]]
        if v is None:
            return False
    return v == h.basepoint


def _based_tree(h: LabeledGraph, fn: str) -> dict[int, tuple[int, int] | None]:
    """Deterministic BFS tree from the basepoint as a parent table: each
    vertex maps to (parent, signed letter read from the parent), the
    basepoint to None, and the keys come in BFS order.  It reads every
    slot of every row, so it costs O(V * N) at rank N, which is O(V + E)
    only when most letters leave most vertices.

    Every walk from a basepoint starts here, so this is where an unbased
    graph (a conjugacy class, not a subgroup) or a disconnected one (no
    path to some vertex) is refused, in the caller `fn`'s name; a table it
    returns holds every vertex."""
    _require_basepoint(h, fn)
    signed = _alphabet(h.rank)._signed
    moves = h.moves()
    parent: dict[int, tuple[int, int] | None] = {h.basepoint: None}
    queue = [h.basepoint]
    for v in queue:
        for p, t in enumerate(moves[v]):
            if t is not None and t not in parent:
                parent[t] = (v, signed[p])
                queue.append(t)
    if len(parent) != h.num_vertices:
        raise NotConnectedError(f"{fn} needs a connected based graph")
    return parent


def _tree_path(parent: dict, v: int) -> Word:
    """The word read along the tree from the basepoint to v, in O(depth)."""
    letters = []
    while parent[v] is not None:
        v, s = parent[v]
        letters.append(s)
    return tuple(reversed(letters))


def subgroup_generators(h: LabeledGraph) -> list[Word]:
    """Free basis: one word per edge off the spanning tree (in a folded
    graph a parent entry names one edge); only those edges' paths are read.
    The tree costs O(V * N) at rank N (`_based_tree`), the words their
    lengths."""
    parent = _based_tree(h, "subgroup_generators")
    return [
        concat(_tree_path(parent, o), (lab,), invert(_tree_path(parent, t)))
        for o, t, lab in h.edges
        if parent[t] != (o, lab) and parent[o] != (t, -lab)
    ]


def rank(graph: LabeledGraph) -> int:
    """First Betti number E - V + 1 of a connected graph."""
    if not graph.is_connected():
        raise NotConnectedError("rank needs a connected graph")
    return len(graph.edges) - graph.num_vertices + 1


def reduced_rank(g: LabeledGraph) -> int:
    return max(rank(g) - 1, 0)


def _bfs_code(moves: list[list[int | None]], start: int) -> tuple:
    """BFS adjacency code from `start` over the `moves()` rows: row i lists,
    per signed letter in `signed_letters()` order, the BFS number of the
    target at the i-th vertex visited, or -1.  O(V * N) at rank N."""
    ids: dict[int | None, int] = {None: -1, start: 0}
    seq = [start]
    rows = []
    for v in seq:
        row = []
        for t in moves[v]:
            i = ids.get(t)
            if i is None:
                i = ids[t] = len(seq)
                seq.append(t)
            row.append(i)
        rows.append(tuple(row))
    if len(seq) != len(moves):
        raise NotConnectedError("canonical form needs a connected graph")
    return tuple(rows)


def _key(graph: LabeledGraph, starts) -> bytes:
    """The rank and the least BFS code over the given start vertices."""
    moves = graph.moves()
    return f"{graph.rank}:{min(_bfs_code(moves, v) for v in starts)}".encode()


def canonical_key(graph: LabeledGraph) -> bytes:
    """Canonical byte string: equal iff the unbased labeled graphs are isomorphic.

    The least BFS adjacency code over the members of class 0 of
    `_stable_classes`.  Its class ids are canonical, so an isomorphism maps
    class 0 onto class 0 and the least code is invariant; a BFS code
    rebuilds the graph it was read from, so equal keys mean isomorphic
    graphs.  On a connected graph class 0 is one fiber of the minimal
    covering quotient, so for a degree-d cover the cost is one refinement,
    O(E log V), plus d codes, each of which reads all 2N slots of every
    row, O(V * N) at rank N: O(V * N) on a graph that is its own minimal
    covering quotient, and O(V^2 * N) on a Cayley graph of a finite group,
    where d = V.  A sparse graph at high rank pays for the slots, not the
    edges: a 1000-vertex cycle at rank 500, its own quotient, reads a
    million slots for its one code, about 0.2 s with Python 3.11 on a
    2-vCPU host.
    """
    if graph.num_vertices == 0:
        raise EmptyCoreError("canonical_key needs a graph with at least one vertex")
    return _key(graph, [v for v, c in enumerate(_stable_classes(graph)) if c == 0])


def canonical_key_based(h: LabeledGraph) -> bytes:
    """Canonical byte string for the based graph, i.e. the subgroup itself."""
    _require_basepoint(h, "canonical_key_based")
    code = _bfs_code(h.moves(), h.basepoint)
    return f"{h.rank}:based:{code}".encode()


def finite_index(h: LabeledGraph, k: LabeledGraph) -> int | None:
    """Index of H in K, or None when it is infinite.

    Raises NotSubgroupError unless H <= K, i.e. unless the label-preserving
    map (h, *) -> (k, *) exists.  It is built and checked in one pass over
    h's departures in the BFS order of `_based_tree`, so each vertex is
    mapped, through its parent's step, before its own departures are read
    against those of its image in k.  Finite index is
    equivalent to the induced map of unbased cores being a covering, and
    the index equals the vertex-count ratio of the cores.  An empty core is
    the trivial subgroup: a trivial K forces H = K, and a trivial H has
    infinite index in any other K.
    """
    if h.rank != k.rank:
        raise ValueError("subgroups of different ambient ranks")
    tree = _based_tree(h, "finite_index")
    _based_tree(k, "finite_index")  # K's table is built for its refusals only
    h_moves, k_moves = h.moves(), k.moves()
    h_places, k_places = h._places, k._places
    f = {h.basepoint: k.basepoint}
    for v in tree:
        here, there = h_moves[v], k_moves[f[v]]
        for p in h_places[v]:
            img = there[p]
            if img is None:
                raise NotSubgroupError("subgroup graph does not map into the target")
            if f.setdefault(here[p], img) != img:
                raise NotSubgroupError("no consistent label-preserving map exists")
    core_h = core_vertices(h)
    core_k = core_vertices(k)
    if not core_k:
        return 1
    if not core_h:
        return None
    for v in core_h:
        w = f[v]
        if w not in core_k:
            raise MismatchBugError("core image escaped the target core")
        here, there = h_moves[v], k_moves[w]
        if {p for p in h_places[v] if here[p] in core_h} != {
            p for p in k_places[w] if there[p] in core_k
        }:
            return None
    if len({f[v] for v in core_h}) != len(core_k) or len(core_h) % len(core_k):
        raise MismatchBugError("locally bijective map of cores failed to be a covering")
    return len(core_h) // len(core_k)


def _stable_classes(graph: LabeledGraph) -> list[int]:
    """Coarsest stable partition of a folded graph, as a canonical class id
    per vertex.

    Hopcroft refinement (Hopcroft 1971), in the partial-transition form of
    Valmari and Lehtinen (STACS 2008), from one class: splitting by the
    whole vertex set separates vertices by their departure sets.  Each
    signed label is a partial injection and `moves()` is symmetric, so the
    vertices that -s takes into a splitter are its members' s targets.
    A split moves only the marked vertices out of their class; the new
    class is queued when its parent still is, else the smaller half is, so
    a vertex lies in O(log V) processed splitters and the cost is O(E log V).

    Every choice reads only class ids, class sizes and letters: the last
    class queued is processed first, its preimages are taken one signed
    letter at a time in `signed_letters()` order (the ascending order of
    their places in the `moves()` rows), touched classes split in
    ascending id order, and the split-off part takes the next id.  So by
    induction on the splits an isomorphism maps class i onto class i.
    Only the letters some member departs by are taken, as no other letter
    touches a class, so a splitter costs its members' degrees and not the
    rank.  The members are read from a snapshot taken before any of those
    letters splits a class, the splitter itself included.
    """
    moves, places = graph.moves(), graph._places
    cls = [0] * graph.num_vertices
    classes = [set(range(graph.num_vertices))]
    pending = {0: None}  # a stack of class ids, without repeats
    while pending:
        splitter = classes[pending.popitem()[0]]
        rows = [moves[c] for c in splitter]
        carried = {p for c in splitter for p in places[c]}
        for p in sorted(carried):
            touched: dict[int, set[int]] = {}
            for row in rows:
                x = row[p]
                if x is not None:
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


def _keyed_quotient(graph: LabeledGraph) -> tuple[LabeledGraph, int, list[int], bytes]:
    """`minimal_covering_quotient` and the quotient's `canonical_key`, from
    one refinement.

    Every class of every partition the refinement passes through is a union
    of fibers of the covering, so refining the quotient repeats refining
    the graph with every class size divided by the degree: the quotient's
    class 0 is the image of the graph's class 0.  The quotient's partition
    is discrete, so its key is its BFS code from that one vertex.

    When every class is a singleton, the graph is its own minimal
    quotient, and the quotient is `graph._rebased(None)` with degree 1
    and the identity map, so its departure table is not built again.

    It trusts its caller: the graph must be nonempty and connected, which
    `minimal_covering_quotient` checks and `normalize` has checked before
    coring the term.
    """
    classes = _stable_classes(graph)
    n = graph.num_vertices
    if max(classes) == n - 1:  # class ids are 0, 1, ..., so all are singletons
        quotient = graph._rebased(None)
        return quotient, 1, list(range(n)), _key(quotient, [classes.index(0)])
    first: dict[int, int] = {}
    vmap = [first.setdefault(c, len(first)) for c in classes]
    edges = {(vmap[o], vmap[t], lab) for o, t, lab in graph.edges}
    quotient = LabeledGraph(graph.rank, len(first), edges)
    if not quotient.is_folded():
        raise MismatchBugError("stable partition produced an unfolded quotient")
    if graph.num_vertices % quotient.num_vertices:
        raise MismatchBugError("covering degree is not integral")
    return quotient, graph.num_vertices // quotient.num_vertices, vmap, _key(quotient, [first[0]])


def minimal_covering_quotient(graph: LabeledGraph) -> tuple[LabeledGraph, int, list[int]]:
    """Smallest folded graph covered by the input, with degree and vertex map.

    The fibers of a covering map from a folded graph form a stable
    partition: members of a class carry the same signed departures, and
    each label leads from a class into a single class.  Conversely the
    quotient by any stable partition is folded and locally bijective, so it
    is covered.  `_stable_classes` returns the coarsest stable partition,
    which every other one refines, so its quotient is covered by every
    covering quotient: it is the minimal one.  Classes are numbered by
    their smallest member.
    """
    if graph.num_vertices == 0:
        raise EmptyCoreError("minimal_covering_quotient needs a graph with at least one vertex")
    if not graph.is_connected():
        raise NotConnectedError("covering quotients need a connected graph")
    return _keyed_quotient(graph)[:3]


def _core_and_tail(h: LabeledGraph, fn: str) -> tuple[LabeledGraph, int, Word]:
    """Split a based graph into its unbased core, the attachment vertex
    (as a core-graph index) and the word read along the basepoint arc:
    the spanning-tree path to the first core vertex the BFS discovers.
    An empty core names no nontrivial subgroup; the caller `fn` is named
    when `_based_tree` refuses the graph."""
    parent = _based_tree(h, fn)
    survivors = core_vertices(h)
    if not survivors:
        raise TrivialSubgroupError("a based tree is the trivial subgroup, which has no core")
    cg, renum = induced_subgraph(h, survivors)
    hit = next(v for v in parent if v in survivors)
    return cg, renum[hit], _tree_path(parent, hit)


def _attach_tail(core_graph: LabeledGraph, at: int, word: Word) -> LabeledGraph:
    """Join a fresh basepoint to the core by an arc spelling the word,
    folding where the arc's end runs along the core; with no word the
    basepoint is `at` itself."""
    n = core_graph.num_vertices
    folder = _Folder(n + 1, core_graph.edges)
    folder.arc(n, at, word)
    return check_core_graph(folder.graph(core_graph.rank, n))


def commensurator(h: LabeledGraph) -> tuple[LabeledGraph, int]:
    """The largest overgroup containing H with finite index, and that index.

    Computed as the minimal covering quotient of the core, conjugated back
    along the basepoint arc.
    """
    cg, attach, tail = _core_and_tail(h, "commensurator")
    quotient, degree, vmap = minimal_covering_quotient(cg)
    return _attach_tail(quotient, vmap[attach], tail), degree


def random_reduced_word(rng: random.Random, alphabet: Alphabet, length: int) -> Word:
    """Uniform non-backtracking walk of the given length.

    The first letter is drawn from the 2N signed letters, each later one
    from the 2N - 1 left after the inverse of the last, in the order of
    `signed_letters()`.  A draw takes `rng.randrange` of the count and
    steps over the inverse's place, the last place ^ 1, so a letter costs
    O(1) at any rank and
    the stream is the one `rng.choice` over those lists would draw.
    """
    if _int(length, "length") < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    signed = alphabet._signed
    randrange = rng.randrange
    letters: list[int] = []
    count, skip = len(signed), len(signed)  # the first draw skips no place
    for _ in range(length):
        i = randrange(count)
        i += i >= skip
        letters.append(signed[i])
        count, skip = len(signed) - 1, i ^ 1
    return tuple(letters)


def random_subgroup(
    rng: random.Random, alphabet: Alphabet, max_gens: int = 3, max_len: int = 6
) -> LabeledGraph:
    if _int(max_gens, "max_gens") < 1 or _int(max_len, "max_len") < 1:
        raise ValueError(f"max_gens and max_len must be at least 1, got {max_gens} and {max_len}")
    n_gens = rng.randint(1, max_gens)
    gens = [
        random_reduced_word(rng, alphabet, rng.randint(1, max_len))
        for _ in range(n_gens)
    ]
    return from_generators(gens, alphabet)


def random_finite_index_cover(h: LabeledGraph, degree: int, rng: random.Random) -> LabeledGraph:
    """Random index-`degree` subgroup of H via sheet permutations of its core.

    Each core edge gets a permutation of the sheets; disconnected draws are
    rejected and retried.
    """
    if _int(degree, "degree") < 1:
        raise ValueError("degree must be positive")
    cg, attach, tail = _core_and_tail(h, "random_finite_index_cover")
    for _ in range(COVER_TRIES):
        edges = []
        for o, t, lab in cg.edges:
            perm = list(range(degree))
            rng.shuffle(perm)
            for sheet in range(degree):
                edges.append((o * degree + sheet, t * degree + perm[sheet], lab))
        cover = LabeledGraph(cg.rank, cg.num_vertices * degree, edges)
        if not cover.is_connected():
            continue
        return _attach_tail(cover, attach * degree, tail)
    raise RetryLimitError(f"no connected degree-{degree} cover found in {COVER_TRIES} tries")


def graph_to_json_dict(graph: LabeledGraph) -> dict:
    out = {
        "rank": graph.rank,
        "vertices": list(range(graph.num_vertices)),
        "edges": [[o, t, lab] for o, t, lab in graph.edges],
    }
    if graph.basepoint is not None:
        out["basepoint"] = graph.basepoint
    return out


def graph_from_json_dict(data: dict) -> LabeledGraph:
    """Read `graph_to_json_dict` output back, or refuse it with ValueError:
    the vertices must be the integers 0..n-1; the `LabeledGraph` constructor
    refuses an edge that is not [origin, terminus, label], non-integer
    entries, a rank below 2 and out-of-range values."""
    if not (isinstance(data, dict) and "rank" in data and isinstance(data.get("vertices"), list)
            and isinstance(data.get("edges"), list)):
        raise ValueError("a graph is a JSON object with a rank and vertex and edge arrays")
    vertices = [_int(v, "vertex") for v in data["vertices"]]
    if sorted(vertices) != list(range(len(vertices))):
        raise ValueError("vertices must be the integers 0..n-1")
    return LabeledGraph(data["rank"], len(vertices), data["edges"], data.get("basepoint"))


def graph_to_dot(graph: LabeledGraph, component_colors: dict[int, str] | None = None) -> str:
    lines = ["digraph core {"]
    for v in range(graph.num_vertices):
        attrs = []
        if v == graph.basepoint:
            attrs.append("shape=doublecircle")
        if component_colors and v in component_colors:
            attrs.append(f'color="{component_colors[v]}"')
        lines.append(f"  {v} [{', '.join(attrs)}];" if attrs else f"  {v};")
    names = _alphabet(graph.rank)._names
    for o, t, lab in graph.edges:
        lines.append(f'  {o} -> {t} [label="{names[lab]}"];')
    lines.append("}")
    return "\n".join(lines)


def parse_subgroup_file(text: str, alphabet: Alphabet) -> list[Word]:
    """One generator word per line; blank lines and # comments are skipped."""
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            gens.append(parse_word(line, alphabet))
        except WordFormatError as exc:
            raise WordFormatError(f"line {lineno}: {exc}") from exc
    return gens
