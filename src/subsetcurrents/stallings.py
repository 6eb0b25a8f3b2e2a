"""Core graphs of finitely generated subgroups of a free group.

A subgroup is represented by a finite folded graph whose edges carry
generator labels, together with an optional basepoint.  Folding, coring,
membership, canonical forms, relative index and covering constructions all
live here.  Vertices are always integers 0..n-1; renumbering happens on
every rebuild so downstream code can treat vertex ids as dense indices.
"""

from __future__ import annotations

import random
from collections import deque

from .errors import (
    EmptyCoreError,
    MismatchBugError,
    NotConnectedError,
    NotSubgroupError,
    RetryLimitError,
    TrivialSubgroupError,
    WordFormatError,
)
from .words import Alphabet, Word, concat, invert, parse_word, reduce_word

Edge = tuple[int, int, int]  # (origin, terminus, positive label)


def _signed_order(rank: int) -> list[int]:
    out = []
    for i in range(1, rank + 1):
        out.append(i)
        out.append(-i)
    return out


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


class LabeledGraph:
    """Finite multigraph over the rank-N rose.  Treated as immutable."""

    __slots__ = ("rank", "num_vertices", "edges", "basepoint", "_germs")

    def __init__(self, rank: int, num_vertices: int, edges, basepoint: int | None = None):
        self.rank = rank
        self.num_vertices = num_vertices
        self.edges: tuple[Edge, ...] = tuple(sorted(tuple(e) for e in edges))
        self.basepoint = basepoint
        for o, t, lab in self.edges:
            if not (0 <= o < num_vertices and 0 <= t < num_vertices):
                raise ValueError(f"edge ({o},{t},{lab}) out of vertex range")
            if not (1 <= lab <= rank):
                raise ValueError(f"edge label {lab} out of range for rank {rank}")
        if basepoint is not None and not (0 <= basepoint < num_vertices):
            raise ValueError(f"basepoint {basepoint} out of range")
        self._germs = None

    def germs(self, v: int) -> dict[int, list[tuple[int, int]]]:
        """Departures at v: signed label -> list of (target, edge index)."""
        if self._germs is None:
            table: list[dict[int, list[tuple[int, int]]]] = [
                {} for _ in range(self.num_vertices)
            ]
            for i, (o, t, lab) in enumerate(self.edges):
                table[o].setdefault(lab, []).append((t, i))
                table[t].setdefault(-lab, []).append((o, i))
            self._germs = table
        return self._germs[v]

    def germ_labels(self, v: int) -> frozenset[int]:
        return frozenset(self.germs(v))

    def degree(self, v: int) -> int:
        return sum(len(lst) for lst in self.germs(v).values())

    def step(self, v: int, signed: int) -> int | None:
        """Follow the unique signed-label departure; requires a folded graph."""
        lst = self.germs(v).get(signed)
        if lst is None:
            return None
        return lst[0][0]

    def step_edge(self, v: int, signed: int) -> tuple[int, int] | None:
        lst = self.germs(v).get(signed)
        if lst is None:
            return None
        return lst[0]

    def is_folded(self) -> bool:
        return all(
            len(lst) == 1 for v in range(self.num_vertices) for lst in self.germs(v).values()
        )

    def component_ids(self) -> list[int]:
        uf = UnionFind(self.num_vertices)
        for o, t, _ in self.edges:
            uf.union(o, t)
        return [uf.find(v) for v in range(self.num_vertices)]

    def is_connected(self) -> bool:
        return self.num_vertices <= 1 or len(set(self.component_ids())) == 1

    @property
    def graph(self) -> "LabeledGraph":
        """The graph itself, read-only.  Kept because the benchmark harness
        (perfbench/ops.py) still reads `h.graph` off subgroup graphs."""
        return self

    def __repr__(self):
        return f"LabeledGraph(V={self.num_vertices}, E={len(self.edges)}, rank={self.rank})"


def fold(graph: LabeledGraph) -> LabeledGraph:
    """Identify same-label departures until no vertex has two of them.

    Germ-merge worklist: each vertex keeps a dict from signed label to its
    first target, and every second departure with the same label queues a
    clash.  A clash unions the two targets' classes and merges the loser's
    dict into the root's, queueing the clashes that creates.  A union moves
    at most 2 * rank entries, so the fold is near-linear in the edges.  The
    finest folded identification is unique, so the result does not depend
    on the order; classes are numbered by their smallest vertex and
    duplicate parallel edges collapse.
    """
    uf = UnionFind(graph.num_vertices)
    germ: list[dict[int, int]] = [{} for _ in range(graph.num_vertices)]
    clashes = []
    for o, t, lab in graph.edges:
        for v, s, w in ((o, lab, t), (t, -lab, o)):
            prev = germ[v].setdefault(s, w)
            if prev != w:
                clashes.append((prev, w))
    while clashes:
        a, b = clashes.pop()
        ra, rb = uf.find(a), uf.find(b)
        if not uf.union(ra, rb):
            continue
        root, other = min(ra, rb), max(ra, rb)
        merged = germ[root]
        for s, w in germ[other].items():
            prev = merged.setdefault(s, w)
            if prev != w:
                clashes.append((prev, w))
        germ[other] = {}
    roots = sorted({uf.find(v) for v in range(graph.num_vertices)})
    renum = {r: i for i, r in enumerate(roots)}
    new_edges = {(renum[uf.find(o)], renum[uf.find(t)], lab) for o, t, lab in graph.edges}
    bp = None if graph.basepoint is None else renum[uf.find(graph.basepoint)]
    return LabeledGraph(graph.rank, len(roots), new_edges, basepoint=bp)


def core_vertices(graph: LabeledGraph, keep: int | None = None) -> set[int]:
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


def induced_subgraph(
    graph: LabeledGraph, vertices, basepoint: int | None = None
) -> tuple[LabeledGraph, dict[int, int]]:
    """Subgraph on the given vertices, renumbered; returns (graph, old->new map)."""
    order = sorted(vertices)
    renum = {v: i for i, v in enumerate(order)}
    edges = [
        (renum[o], renum[t], lab)
        for o, t, lab in graph.edges
        if o in renum and t in renum
    ]
    bp = None if basepoint is None else renum[basepoint]
    return LabeledGraph(graph.rank, len(order), edges, basepoint=bp), renum


def core(graph: LabeledGraph) -> LabeledGraph:
    """Unbased core: prune hanging trees, forget the basepoint."""
    survivors = core_vertices(graph)
    out, _ = induced_subgraph(graph, survivors)
    if not out.edges:
        raise EmptyCoreError("graph has no essential loop, so its core is empty")
    return out


def core_based(graph: LabeledGraph) -> LabeledGraph:
    """Core that spares the basepoint (plus the arc connecting it, if any)."""
    if graph.basepoint is None:
        raise ValueError("core_based needs a basepoint")
    survivors = core_vertices(graph, keep=graph.basepoint)
    out, _ = induced_subgraph(graph, survivors, basepoint=graph.basepoint)
    if not out.edges:
        raise EmptyCoreError("graph has no essential loop, so its core is empty")
    return out


def check_core_graph(graph: LabeledGraph) -> LabeledGraph:
    """Return the graph if it is a core graph, else raise.

    Unbased, it is a subgroup up to conjugacy: folded, with every degree
    >= 2.  Based, it is the subgroup itself: folded, connected, with degree
    >= 2 away from the basepoint.
    """
    if not graph.edges:
        raise EmptyCoreError("empty graph does not represent a nontrivial subgroup")
    if not graph.is_folded():
        raise ValueError("core graph must be folded")
    if graph.basepoint is not None and not graph.is_connected():
        raise NotConnectedError("based core graph must be connected")
    for v in range(graph.num_vertices):
        if v != graph.basepoint and graph.degree(v) < 2:
            raise ValueError(f"non-basepoint vertex {v} has degree < 2")
    return graph


def from_generators(gens, alphabet: Alphabet) -> LabeledGraph:
    """Fold a wedge of generator loops into the based core graph of <gens>."""
    words = [reduce_word(w) for w in gens]
    words = [w for w in words if w]
    if not words:
        raise TrivialSubgroupError("all generators reduce to the identity")
    edges: list[Edge] = []
    next_vertex = 1
    for w in words:
        prev = 0
        for i, x in enumerate(w):
            if i == len(w) - 1:
                nxt = 0
            else:
                nxt = next_vertex
                next_vertex += 1
            if x > 0:
                edges.append((prev, nxt, x))
            else:
                edges.append((nxt, prev, -x))
            prev = nxt
    wedge = LabeledGraph(alphabet.rank, next_vertex, edges, basepoint=0)
    return check_core_graph(core_based(fold(wedge)))


def contains(h: LabeledGraph, w: Word) -> bool:
    """Does the word lie in the subgroup, i.e. read as a loop at the basepoint."""
    v = h.basepoint
    for x in reduce_word(w):
        nxt = h.step(v, x)
        if nxt is None:
            return False
        v = nxt
    return v == h.basepoint


def _spanning_tree(graph: LabeledGraph, root: int) -> tuple[dict[int, Word], set[int]]:
    """Deterministic BFS tree: path words from the root and tree edge ids."""
    order = _signed_order(graph.rank)
    path: dict[int, Word] = {root: ()}
    tree_edges: set[int] = set()
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for s in order:
            hit = graph.step_edge(v, s)
            if hit is None:
                continue
            t, eid = hit
            if t not in path:
                path[t] = path[v] + (s,)
                tree_edges.add(eid)
                queue.append(t)
    return path, tree_edges


def subgroup_generators(h: LabeledGraph) -> list[Word]:
    """Free basis read off a spanning tree; one word per non-tree edge."""
    path, tree_edges = _spanning_tree(h, h.basepoint)
    gens = []
    for i, (o, t, lab) in enumerate(h.edges):
        if i in tree_edges:
            continue
        gens.append(concat(path[o], (lab,), invert(path[t])))
    return gens


def rank(graph: LabeledGraph) -> int:
    """First Betti number E - V + 1 of a connected graph."""
    if not graph.is_connected():
        raise NotConnectedError("rank needs a connected graph")
    return len(graph.edges) - graph.num_vertices + 1


def reduced_rank(g: LabeledGraph) -> int:
    return max(rank(g) - 1, 0)


def _bfs_code(graph: LabeledGraph, start: int, order: list[int]):
    ids = {start: 0}
    seq = [start]
    rows = []
    qi = 0
    while qi < len(seq):
        v = seq[qi]
        qi += 1
        row = []
        for s in order:
            t = graph.step(v, s)
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


def canonical_key(graph: LabeledGraph) -> bytes:
    """Canonical byte string: equal iff the unbased labeled graphs are isomorphic.

    Minimum over all start vertices of a deterministic BFS adjacency code;
    any isomorphism matches start vertices, so the minimum is invariant.
    """
    order = _signed_order(graph.rank)
    best = min(_bfs_code(graph, s, order) for s in range(graph.num_vertices))
    return f"{graph.rank}:{best}".encode()


def canonical_key_based(h: LabeledGraph) -> bytes:
    """Canonical byte string for the based graph, i.e. the subgroup itself."""
    code = _bfs_code(h, h.basepoint, _signed_order(h.rank))
    return f"{h.rank}:based:{code}".encode()


def _based_morphism(h: LabeledGraph, k: LabeledGraph) -> list[int]:
    """The label-preserving map (h, *) -> (k, *); exists exactly when H <= K."""
    f = [-1] * h.num_vertices
    f[h.basepoint] = k.basepoint
    queue = deque([h.basepoint])
    while queue:
        v = queue.popleft()
        for s, lst in h.germs(v).items():
            img = k.step(f[v], s)
            if img is None:
                raise NotSubgroupError("subgroup graph does not map into the target")
            for t, _ in lst:
                if f[t] == -1:
                    f[t] = img
                    queue.append(t)
                elif f[t] != img:
                    raise NotSubgroupError("no consistent label-preserving map exists")
    return f


def finite_index(h: LabeledGraph, k: LabeledGraph) -> int | None:
    """Index of H in K, or None when it is infinite.

    Raises NotSubgroupError unless H <= K.  Finite index is equivalent to the
    induced map of unbased cores being a covering, and the index equals the
    vertex-count ratio of the cores.
    """
    if h.rank != k.rank:
        raise ValueError("subgroups of different ambient ranks")
    f = _based_morphism(h, k)
    core_h = core_vertices(h)
    core_k = core_vertices(k)
    ch, map_h = induced_subgraph(h, core_h)
    ck, map_k = induced_subgraph(k, core_k)
    for v_old in core_h:
        img_old = f[v_old]
        if img_old not in map_k:
            raise MismatchBugError("core image escaped the target core")
        if ch.germ_labels(map_h[v_old]) != ck.germ_labels(map_k[img_old]):
            return None
    image = {map_k[f[v]] for v in core_h}
    if len(image) != ck.num_vertices or ch.num_vertices % ck.num_vertices:
        raise MismatchBugError("locally bijective map of cores failed to be a covering")
    return ch.num_vertices // ck.num_vertices


def _wl_classes(graph: LabeledGraph) -> list[int]:
    """Coarsest stable partition of a folded graph, as vertex colors.

    Colors start from the sets of signed departures and are refined by the
    colors each label leads to until the number of classes stops growing.
    """
    color = {v: tuple(sorted(graph.germ_labels(v))) for v in range(graph.num_vertices)}
    palette = {c: i for i, c in enumerate(sorted(set(color.values())))}
    colors = [palette[color[v]] for v in range(graph.num_vertices)]
    while True:
        sig = [
            (
                colors[v],
                tuple(
                    sorted((s, colors[lst[0][0]]) for s, lst in graph.germs(v).items())
                ),
            )
            for v in range(graph.num_vertices)
        ]
        palette = {c: i for i, c in enumerate(sorted(set(sig)))}
        new_colors = [palette[sig[v]] for v in range(graph.num_vertices)]
        if len(set(new_colors)) == len(set(colors)):
            return new_colors
        colors = new_colors


def minimal_covering_quotient(graph: LabeledGraph) -> tuple[LabeledGraph, int, list[int]]:
    """Smallest folded graph covered by the input, with degree and vertex map.

    The fibers of a covering map from a folded graph form a stable
    partition: members of a class carry the same signed departures, and
    each label leads from a class into a single class.  Conversely the
    quotient by any stable partition is folded and locally bijective, so it
    is covered.  `_wl_classes` returns the coarsest stable partition, which
    every other one refines, so its quotient is covered by every covering
    quotient: it is the minimal one.  Classes are numbered by their
    smallest member.
    """
    if not graph.is_connected():
        raise NotConnectedError("covering quotients need a connected graph")
    first: dict[int, int] = {}
    vmap = [first.setdefault(c, len(first)) for c in _wl_classes(graph)]
    edges = {(vmap[o], vmap[t], lab) for o, t, lab in graph.edges}
    quotient = LabeledGraph(graph.rank, len(first), edges)
    if not quotient.is_folded():
        raise MismatchBugError("stable partition produced an unfolded quotient")
    if graph.num_vertices % quotient.num_vertices:
        raise MismatchBugError("covering degree is not integral")
    return quotient, graph.num_vertices // quotient.num_vertices, vmap


def _core_and_tail(h: LabeledGraph) -> tuple[LabeledGraph, int, Word]:
    """Split a based graph into its unbased core, the attachment vertex
    (as a core-graph index) and the word read along the basepoint arc."""
    survivors = core_vertices(h)
    cg, renum = induced_subgraph(h, survivors)
    if h.basepoint in survivors:
        return cg, renum[h.basepoint], ()
    order = _signed_order(h.rank)
    prev: dict[int, tuple[int, int]] = {h.basepoint: (-1, 0)}
    queue = deque([h.basepoint])
    hit = None
    while queue and hit is None:
        v = queue.popleft()
        for s in order:
            t = h.step(v, s)
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


def _attach_tail(core_graph: LabeledGraph, at: int, word: Word) -> LabeledGraph:
    """Glue a fresh arc spelling the word from a new basepoint to the core."""
    if not word:
        g = LabeledGraph(
            core_graph.rank, core_graph.num_vertices, core_graph.edges, basepoint=at
        )
        return check_core_graph(core_based(fold(g)))
    edges = list(core_graph.edges)
    base = core_graph.num_vertices
    prev = base
    nxt = base + 1
    for i, x in enumerate(word):
        target = at if i == len(word) - 1 else nxt
        if target != at:
            nxt += 1
        if x > 0:
            edges.append((prev, target, x))
        else:
            edges.append((target, prev, -x))
        prev = target
    g = LabeledGraph(core_graph.rank, base + len(word), edges, basepoint=base)
    # the last arc edge can clash with a core edge after quotienting, so fold
    return check_core_graph(core_based(fold(g)))


def commensurator(h: LabeledGraph) -> tuple[LabeledGraph, int]:
    """The largest overgroup containing H with finite index, and that index.

    Computed as the minimal covering quotient of the core, conjugated back
    along the basepoint arc.
    """
    cg, attach, tail = _core_and_tail(h)
    quotient, degree, vmap = minimal_covering_quotient(cg)
    return _attach_tail(quotient, vmap[attach], tail), degree


def random_reduced_word(rng: random.Random, alphabet: Alphabet, length: int) -> Word:
    """Uniform non-backtracking walk of the given length."""
    letters: list[int] = []
    for _ in range(length):
        options = [s for s in alphabet.signed_letters() if not letters or s != -letters[-1]]
        letters.append(rng.choice(options))
    return tuple(letters)


def random_subgroup(
    rng: random.Random, alphabet: Alphabet, max_gens: int = 3, max_len: int = 6
) -> LabeledGraph:
    n_gens = rng.randint(1, max_gens)
    gens = [
        random_reduced_word(rng, alphabet, rng.randint(1, max_len))
        for _ in range(n_gens)
    ]
    return from_generators(gens, alphabet)


def random_finite_index_cover(
    h: LabeledGraph, degree: int, rng: random.Random, max_tries: int = 500
) -> LabeledGraph:
    """Random index-`degree` subgroup of H via sheet permutations of its core.

    Each core edge gets a permutation of the sheets; disconnected draws are
    rejected and retried.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    cg, attach, tail = _core_and_tail(h)
    for _ in range(max_tries):
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
    raise RetryLimitError(
        f"no connected degree-{degree} cover found in {max_tries} tries"
    )


def graph_to_json_dict(graph: LabeledGraph) -> dict:
    out = {
        "rank": graph.rank,
        "vertices": list(range(graph.num_vertices)),
        "edges": [[o, t, lab] for o, t, lab in graph.edges],
    }
    if graph.basepoint is not None:
        out["basepoint"] = graph.basepoint
    return out


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # bool is a subclass of int, and is refused too
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def graph_from_json_dict(data: dict) -> LabeledGraph:
    """Read `graph_to_json_dict` output back; every field must be a JSON
    integer and every edge exactly [origin, terminus, label]."""
    vertices = [_json_int(v, "vertex") for v in data["vertices"]]
    if sorted(vertices) != list(range(len(vertices))):
        raise ValueError("vertices must be the integers 0..n-1")
    edges = []
    for e in data["edges"]:
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise ValueError(f"edge {e!r} is not [origin, terminus, label]")
        edges.append(tuple(_json_int(x, "edge entry") for x in e))
    bp = data.get("basepoint")
    return LabeledGraph(
        _json_int(data["rank"], "rank"),
        len(vertices),
        edges,
        basepoint=None if bp is None else _json_int(bp, "basepoint"),
    )


def graph_to_dot(graph: LabeledGraph, component_colors: dict[int, str] | None = None) -> str:
    lines = ["digraph core {"]
    for v in range(graph.num_vertices):
        attrs = []
        if v == graph.basepoint:
            attrs.append("shape=doublecircle")
        if component_colors and v in component_colors:
            attrs.append(f'color="{component_colors[v]}"')
        lines.append(f"  {v} [{', '.join(attrs)}];" if attrs else f"  {v};")
    for o, t, lab in graph.edges:
        name = chr(ord("a") + lab - 1) if graph.rank <= 26 else f"x{lab}"
        lines.append(f'  {o} -> {t} [label="{name}"];')
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
