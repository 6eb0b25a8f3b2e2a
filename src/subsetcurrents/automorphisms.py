"""Endomorphisms of the free group acting on words, subgroups and currents.

An endomorphism is pinned down by the images of the generators.  Whether it
is an automorphism reduces to a folding question: the images generate the
whole group exactly when their Stallings graph is the rose, and surjective
endomorphisms of free groups are automatically injective.
"""

from __future__ import annotations

import random

from .errors import TrivialSubgroupError, WordFormatError
from .currents import RationalCurrent, normalize
from .stallings import (
    LabeledGraph,
    check_core_graph,
    from_generators,
    parse_subgroup_file,
    subgroup_generators,
)
from .words import Alphabet, Word, _int, invert, reduce_word


class Endomorphism:
    """Map of the free group given by generator images."""

    __slots__ = ("alphabet", "images")

    def __init__(self, images, alphabet: Alphabet):
        imgs = tuple(map(tuple, images))
        if len(imgs) != alphabet.rank:
            raise ValueError(
                f"need {alphabet.rank} generator images, got {len(imgs)}"
            )
        # checked before reducing, so a float cannot cancel an int letter
        for w in imgs:
            alphabet.check_word(w)
        self.alphabet = alphabet
        self.images = tuple(map(reduce_word, imgs))

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
    """Substitute generator images letter by letter, then reduce once.
    A letter outside phi's alphabet raises `WordFormatError`."""
    phi.alphabet.check_word(w)
    out: list[int] = []
    for x in w:
        img = phi.images[x - 1] if x > 0 else invert(phi.images[-x - 1])
        out.extend(img)
    return reduce_word(out)


def is_automorphism(phi: Endomorphism) -> bool:
    """True when the images generate everything: their Stallings graph is the rose."""
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
    if _int(length, "length") < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    gens = nielsen_generators(alphabet)
    phi = Endomorphism.identity(alphabet)
    for _ in range(length):
        phi = rng.choice(gens).compose(phi)
    return phi


def act_on_subgroup(phi: Endomorphism, h: LabeledGraph) -> LabeledGraph:
    """Core graph of the image subgroup phi(H); phi may be any endomorphism
    of H's ambient rank."""
    if phi.alphabet.rank != h.rank:
        raise ValueError(
            f"an endomorphism of rank {phi.alphabet.rank} cannot act on a subgroup of rank {h.rank}"
        )
    gens = subgroup_generators(h)
    return from_generators([apply_word(phi, g) for g in gens], phi.alphabet)


def act_on_current(phi: Endomorphism, mu: RationalCurrent) -> RationalCurrent:
    """Push a current through phi term by term, then re-normalize.  Each
    term is read as the subgroup based at its vertex 0, a copy that shares
    the term's edges and departure table."""
    raw = []
    for coeff, g in mu.terms():
        raw.append((coeff, act_on_subgroup(phi, check_core_graph(g._rebased(0)))))
    return normalize(raw)


def parse_automorphism_file(text: str, alphabet: Alphabet) -> Endomorphism:
    """One generator image per line, in generator order; # comments allowed."""
    words = parse_subgroup_file(text, alphabet)
    if len(words) != alphabet.rank:
        raise WordFormatError(
            f"automorphism file needs {alphabet.rank} image lines, got {len(words)}"
        )
    return Endomorphism(words, alphabet)
