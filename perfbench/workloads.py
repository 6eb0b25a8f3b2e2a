"""Seeded inputs for the three benchmark workloads.

Every word, subgroup file and automorphism file is generated here from the
workload seed with the benchmark's own word and graph code, so the inputs
do not change when the package's random helpers do, and the program under
test sees only generated files and argv.  One pass is the list of ops a
workload returns; the runner replays whole passes.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

Word = tuple[int, ...]


@dataclass
class Op:
    """One closed-loop operation: a `subcur` argv or a library call.

    `kind` names the command or library routine; `params` holds what the
    library routines and the size accounting need (file paths, rank).
    """

    name: str
    kind: str
    argv: list[str] | None = None
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    build: Callable[[random.Random, "_Files"], list[Op]]
    # Index of the op replayed once as the warm-up of every set-up.
    warmup: int = 0


def reduce_word(letters) -> Word:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def invert(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def concat(*words: Word) -> Word:
    return reduce_word([x for w in words for x in w])


def random_word(rng: random.Random, rank: int, length: int) -> Word:
    """Uniform non-backtracking walk on the rank-`rank` rose."""
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    out: list[int] = []
    while len(out) < length:
        x = rng.choice(letters)
        if not out or x != -out[-1]:
            out.append(x)
    return tuple(out)


def format_word(w: Word) -> str:
    return "".join(chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1) for x in w)


def _germs(vertices: int, edges) -> list[set[int]]:
    germs: list[set[int]] = [set() for _ in range(vertices)]
    for o, t, lab in edges:
        germs[o].add(lab)
        germs[t].add(-lab)
    return germs


def random_cycle(rng: random.Random, rank: int, vertices: int) -> list[tuple[int, int, int]]:
    """Edges (origin, terminus, label) of a folded cycle through every vertex."""
    while True:
        order = [0] + rng.sample(range(1, vertices), vertices - 1)
        edges: list[tuple[int, int, int]] = []
        germs = _germs(vertices, edges)
        for u, v in zip(order, order[1:] + order[:1]):
            free = [(o, t, lab) for lab in range(1, rank + 1) for o, t in ((u, v), (v, u))
                    if lab not in germs[o] and -lab not in germs[t]]
            if not free:
                break
            o, t, lab = rng.choice(free)
            germs[o].add(lab)
            germs[t].add(-lab)
            edges.append((o, t, lab))
        if len(edges) == vertices:
            return edges


def add_chords(rng: random.Random, rank: int, vertices: int, edges,
               chords: int) -> list[tuple[int, int, int]]:
    """The edges plus `chords` random ones, each placed where both germs are free.

    On a cycle through every vertex the result is a folded core graph with
    exactly V vertices and V + chords edges, so its rank is chords + 1.
    """
    out = list(edges)
    germs = _germs(vertices, out)
    while len(out) < len(edges) + chords:
        o, t, lab = rng.randrange(vertices), rng.randrange(vertices), rng.randint(1, rank)
        if lab not in germs[o] and -lab not in germs[t]:
            germs[o].add(lab)
            germs[t].add(-lab)
            out.append((o, t, lab))
    return out


def random_core(rng: random.Random, rank: int, vertices: int, chords: int):
    return add_chords(rng, rank, vertices, random_cycle(rng, rank, vertices), chords)


def _connected(vertices: int, edges) -> bool:
    adjacent: list[list[int]] = [[] for _ in range(vertices)]
    for o, t, _ in edges:
        adjacent[o].append(t)
        adjacent[t].append(o)
    seen = {0}
    stack = [0]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == vertices


def cover(rng: random.Random, vertices: int, edges, degree: int) -> list[tuple[int, int, int]]:
    """A random connected degree-`degree` covering graph, one sheet permutation per edge."""
    while True:
        out = []
        for o, t, lab in edges:
            perm = rng.sample(range(degree), degree)
            out += [(o * degree + s, t * degree + perm[s], lab) for s in range(degree)]
        if _connected(vertices * degree, out):
            return out


def basis(edges) -> list[Word]:
    """Free basis of the subgroup of a folded graph based at vertex 0: one
    word per edge outside a breadth-first spanning tree."""
    steps: dict[int, list[tuple[int, int, int]]] = {}
    for i, (o, t, lab) in enumerate(edges):
        steps.setdefault(o, []).append((lab, t, i))
        steps.setdefault(t, []).append((-lab, o, i))
    path: dict[int, Word] = {0: ()}
    tree: set[int] = set()
    queue = [0]
    for v in queue:
        for s, t, i in sorted(steps[v]):
            if t not in path:
                path[t] = path[v] + (s,)
                tree.add(i)
                queue.append(t)
    return [concat(path[o], (lab,), invert(path[t]))
            for i, (o, t, lab) in enumerate(edges) if i not in tree]


def signed_permutation(rng: random.Random, rank: int) -> list[Word]:
    """Images of the generators under a random permutation with random inversions."""
    return [(rng.choice((1, -1)) * i,) for i in rng.sample(range(1, rank + 1), rank)]


class _Files:
    """Writes generator files into the run directory under stable names."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.count = 0

    def write(self, words: list[Word]) -> str:
        path = self.run_dir / f"in{self.count:03d}.txt"
        self.count += 1
        path.write_text("".join(format_word(w) + "\n" for w in words), encoding="utf-8")
        return str(path)


def _pair_ops(files: _Files, rank: int, label: str, h: list[Word], k: list[Word],
              commands=("product",), automorphism: list[Word] | None = None) -> list[Op]:
    hp, kp = files.write(h), files.write(k)
    params = {"rank": rank, "h": hp, "k": kp}
    extra = []
    if automorphism is not None:
        params["automorphism"] = files.write(automorphism)
        extra = ["--automorphism", params["automorphism"]]
    return [Op(f"{cmd}-{label}", cmd, [cmd, "--rank", str(rank), hp, kp] + extra, params)
            for cmd in commands]


def build_scan(rng: random.Random, files: _Files) -> list[Op]:
    # Small wedges folded per call: per-call overhead, no rank effect.
    ops = []
    for j in range(60):
        rank = 2 + j % 2
        seed = rng.randrange(10**9)
        argv = ["shnc-scan", "--rank", str(rank), "--samples", "25", "--max-gens", "4",
                "--max-gen-len", "12", "--seed", str(seed), "--format", "json"]
        ops.append(Op(f"scan-r{rank}-{j}", "shnc-scan", argv, {"rank": rank}))
    return ops


def build_product(rng: random.Random, files: _Files) -> list[Op]:
    # Every op stays under about half a second, so a run gives each op
    # some twenty passes to catch the machine at full speed.
    ops = []
    # Size ladder of unrelated pairs, cores of exact size: V = 20..39 and
    # rank 3..4.  Their products have contractible components only.
    for vertices, chords in ((20, 2), (28, 2), (28, 3), (39, 3)):
        for rep in range(2):
            h = basis(random_core(rng, 2, vertices, chords))
            k = basis(random_core(rng, 2, vertices, chords))
            ops += _pair_ops(files, 2, f"v{vertices}r{chords + 1}-{rep}", h, k,
                             ("product", "intersect"))
    # Pairs with essential components: a shared cycle, and finite covers.
    for rep in range(2):
        cycle = random_cycle(rng, 2, 24)
        h = basis(add_chords(rng, 2, 24, cycle, 2))
        k = basis(add_chords(rng, 2, 24, cycle, 2))
        ops += _pair_ops(files, 2, f"shared-{rep}", h, k, ("product", "intersect"))
    for degree in (2, 3):
        base = random_core(rng, 2, 16, 2)
        ops += _pair_ops(files, 2, f"cover{degree}", basis(base),
                         basis(cover(rng, 16, base, degree)), ("product", "intersect"))
    # Signed permutations keep every size exact while the automorphism
    # check and the action on both subgroups still run.
    for rep in range(2):
        h = basis(random_core(rng, 2, 25, 2))
        k = basis(random_core(rng, 2, 25, 2))
        ops += _pair_ops(files, 2, f"automorphism-{rep}", h, k,
                         automorphism=signed_permutation(rng, 2))
    return ops + _higher_rank_ops(rng, files)


def build_big_core(rng: random.Random, files: _Files) -> list[Op]:
    # Every op stays under about a quarter of a second, so a run gives each
    # op some thirty passes.  Each ladder doubles the size twice, which is
    # what the exponent fits need, and each size is drawn twice.
    ops = []
    for rep in range(2):
        for n in (60, 125, 250):
            x = rng.choice((1, -1, 2, -2))
            y = rng.choice((2, -2)) if abs(x) == 1 else rng.choice((1, -1))
            path = files.write([(x,) * n + (y,) + (-x,) * n])
            ops.append(Op(f"core-power-{n}-{rep}", "core", ["core", path], {"rank": 2}))
        for length in (50, 100, 200):
            w = random_word(rng, 2, length)
            gens = [concat(w, random_word(rng, 2, 8), invert(w)) for _ in range(3)]
            path = files.write(gens)
            ops.append(Op(f"core-conj-{length}-{rep}", "core", ["core", path], {"rank": 2}))
        # Rank-8 cores of the size 8x30 random generators fold to and
        # smaller, and a connected double cover of a V=105 core.
        for vertices in (55, 105, 210):
            hp = files.write(basis(random_core(rng, 2, vertices, 7)))
            ops.append(Op(f"current-v{vertices}-{rep}", "current", None,
                          {"rank": 2, "h": hp}))
        base = random_core(rng, 2, 105, 7)
        hp = files.write(basis(base))
        kp = files.write(basis(cover(rng, 105, base, 2)))
        ops.append(Op(f"current-v105-cover2-{rep}", "current", None,
                      {"rank": 2, "h": kp, "base": hp, "degree": 2}))
    return ops


def _higher_rank_ops(rng: random.Random, files: _Files) -> list[Op]:
    """Ranks 4 to 7, where the cylinder route (functional_V) dominates."""
    ops = []
    for rank, n_max in ((4, 4), (5, 2)):
        argv = ["converge", "--rank", str(rank), "--grade", "1", "--n-max", str(n_max)]
        ops.append(Op(f"converge-r{rank}", "converge", argv, {"rank": rank}))
    for rank in (4, 5, 6, 7):
        cycle = random_cycle(rng, rank, 5)
        pairs = (
            ("random", basis(random_core(rng, rank, 6, 1)), basis(random_core(rng, rank, 6, 1))),
            ("shared", basis(add_chords(rng, rank, 5, cycle, 1)),
             basis(add_chords(rng, rank, 5, cycle, 1))),
        )
        for label, h, k in pairs:
            if rank < 6:
                ops += _pair_ops(files, rank, f"r{rank}-{label}", h, k, ("product", "intersect"))
            elif rank == 6:
                # One op: a rank-6 op costs about ten rank-5 ones.
                if label == "random":
                    ops += _pair_ops(files, rank, f"r{rank}-{label}", h, k, ("intersect",))
            else:
                # Rank 7 stays in the mix at a fixed share: today these ops
                # exceed the round-graph cap, and the failure must stay visible.
                hp, kp = files.write(h), files.write(k)
                ops.append(Op(f"routes-r7-{label}", "routes", None,
                              {"rank": 7, "h": hp, "k": kp}))
    return ops


WORKLOADS = {
    "scan": Workload("scan", build_scan),
    "product": Workload("product", build_product, warmup=1),
    "big-core": Workload("big-core", build_big_core, warmup=3),
}


def build(name: str, seed: int, run_dir: Path) -> list[Op]:
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name].build(rng, _Files(run_dir))
