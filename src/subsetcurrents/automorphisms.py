"""Endomorphisms of the free group acting on words, subgroups and currents.

An endomorphism is pinned down by the images of the generators.  Whether it
is an automorphism reduces to a folding question: the images generate the
whole group exactly when their wedge folds to the rose, and surjective
endomorphisms of free groups are automatically injective.
"""

from __future__ import annotations

import random

from .errors import NotAutomorphismError, TrivialSubgroupError, WordFormatError
from .currents import RationalCurrent, normalize, zero_current
from .stallings import (
    LabeledGraph,
    check_core_graph,
    from_generators,
    parse_subgroup_file,
    subgroup_generators,
)
from .words import Alphabet, Word, invert, reduce_word


class Endomorphism:
    """Map of the free group given by generator images."""

    __slots__ = ("alphabet", "images")

    def __init__(self, images, alphabet: Alphabet):
        imgs = tuple(reduce_word(w) for w in images)
        if len(imgs) != alphabet.rank:
            raise ValueError(
                f"need {alphabet.rank} generator images, got {len(imgs)}"
            )
        for w in imgs:
            for x in w:
                alphabet.check_letter(x)
        self.alphabet = alphabet
        self.images = imgs

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Endomorphism":
        return cls([(i,) for i in alphabet.letters()], alphabet)

    def __call__(self, w: Word) -> Word:
        return apply_word(self, w)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other."""
        if self.alphabet != other.alphabet:
            raise ValueError("endomorphisms of different alphabets")
        return Endomorphism([apply_word(self, w) for w in other.images], self.alphabet)

    def __eq__(self, other):
        return (
            isinstance(other, Endomorphism)
            and self.alphabet == other.alphabet
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.alphabet, self.images))

    def __repr__(self):
        return f"Endomorphism({self.images})"


def apply_word(phi: Endomorphism, w: Word) -> Word:
    """Substitute generator images letter by letter, then reduce once."""
    out: list[int] = []
    for x in w:
        img = phi.images[x - 1] if x > 0 else invert(phi.images[-x - 1])
        out.extend(img)
    return reduce_word(out)


def is_automorphism(phi: Endomorphism) -> bool:
    """True when the images generate everything: their wedge folds to the rose."""
    try:
        g = from_generators(phi.images, phi.alphabet)
    except TrivialSubgroupError:
        return False
    return g.num_vertices == 1 and len(g.edges) == phi.alphabet.rank


def nielsen_generators(alphabet: Alphabet) -> list[Endomorphism]:
    """Inversions, transpositions and left multiplications a_i -> a_j a_i."""
    ident = [(i,) for i in alphabet.letters()]
    gens = []
    for i in alphabet.letters():
        images = list(ident)
        images[i - 1] = (-i,)
        gens.append(Endomorphism(images, alphabet))
    for i in alphabet.letters():
        for j in alphabet.letters():
            if j <= i:
                continue
            images = list(ident)
            images[i - 1], images[j - 1] = (j,), (i,)
            gens.append(Endomorphism(images, alphabet))
    for i in alphabet.letters():
        for j in alphabet.letters():
            if i == j:
                continue
            images = list(ident)
            images[i - 1] = (j, i)
            gens.append(Endomorphism(images, alphabet))
    return gens


def random_automorphism(
    rng: random.Random, alphabet: Alphabet, length: int
) -> Endomorphism:
    """Composition of `length` uniformly chosen Nielsen generators."""
    gens = nielsen_generators(alphabet)
    phi = Endomorphism.identity(alphabet)
    for _ in range(length):
        phi = rng.choice(gens).compose(phi)
    return phi


def act_on_subgroup(
    phi: Endomorphism, h: LabeledGraph, require_automorphism: bool = False
) -> LabeledGraph:
    """Core graph of the image subgroup phi(H)."""
    if require_automorphism and not is_automorphism(phi):
        raise NotAutomorphismError("invariance checks need an automorphism")
    gens = subgroup_generators(h)
    return from_generators([apply_word(phi, g) for g in gens], phi.alphabet)


def act_on_current(
    phi: Endomorphism, mu: RationalCurrent, require_automorphism: bool = False
) -> RationalCurrent:
    """Push a current through phi term by term, then re-normalize."""
    if require_automorphism and not is_automorphism(phi):
        raise NotAutomorphismError("invariance checks need an automorphism")
    if mu.is_zero:
        return zero_current()
    raw = []
    for coeff, g in mu.terms():
        based = check_core_graph(LabeledGraph(g.rank, g.num_vertices, g.edges, basepoint=0))
        gens = subgroup_generators(based)
        image = from_generators([apply_word(phi, w) for w in gens], phi.alphabet)
        raw.append((coeff, image))
    return normalize(raw)


def parse_automorphism_file(text: str, alphabet: Alphabet) -> Endomorphism:
    """One generator image per line, in generator order; # comments allowed."""
    words = parse_subgroup_file(text, alphabet)
    if len(words) != alphabet.rank:
        raise WordFormatError(
            f"automorphism file needs {alphabet.rank} image lines, got {len(words)}"
        )
    return Endomorphism(words, alphabet)
