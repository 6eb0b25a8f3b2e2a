"""Endomorphisms, the automorphism test, and actions on subgroups/currents."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subsetcurrents import automorphisms
from subsetcurrents import (
    Alphabet,
    Endomorphism,
    LabeledGraph,
    RationalCurrent,
    act_on_current,
    act_on_subgroup,
    apply_word,
    canonical_key_based,
    counting_current,
    from_generators,
    functional_rk,
    intersection_functional_N,
    is_automorphism,
    nielsen_generators,
    parse_automorphism_file,
    parse_word,
    random_automorphism,
    reduced_rank,
    random_subgroup,
    WordFormatError,
)

from helpers import act_on_current_rebuild_oracle, random_current

AL2 = Alphabet(2)
AL3 = Alphabet(3)


def sub(*words, alphabet=AL2):
    return from_generators([parse_word(w, alphabet) for w in words], alphabet)


def endo(*images, alphabet=AL2):
    return Endomorphism(
        tuple(parse_word(w, alphabet) for w in images), alphabet
    )


def test_apply_word_oracle():
    phi = endo("ab", "b")
    assert apply_word(phi, parse_word("aB", AL2)) == (1,)
    assert apply_word(phi, parse_word("a", AL2)) == (1, 2)
    assert apply_word(phi, ()) == ()


LETTER_REFUSALS = {
    # unchecked, letter 0 would read images[-1], the last image, inverted
    "letter-0": lambda phi: apply_word(phi, (0,)),
    "letter-0-through-call": lambda phi: phi((0, 1)),
    "letter-above-rank": lambda phi: apply_word(phi, (3,)),
    "letter-float": lambda phi: apply_word(phi, (1.0,)),
    "letter-bool": lambda phi: apply_word(phi, (True, 2)),
    # images are checked before they are reduced
    "image-float-cancelling": lambda phi: Endomorphism([(1, -1.0), (2,)], AL2),
    "image-str": lambda phi: Endomorphism([(1, "a"), (2,)], AL2),
    "image-bool": lambda phi: Endomorphism([(True,), (2,)], AL2),
}


@pytest.mark.parametrize("name", sorted(LETTER_REFUSALS))
def test_letters_outside_the_alphabet_are_refused(name):
    with pytest.raises(WordFormatError, match="is not valid for rank 2"):
        LETTER_REFUSALS[name](endo("ab", "b"))


RANK_MISMATCHES = {
    # read through phi's alphabet, the image would be a rank-3 graph
    "rank-3-on-rank-2-subgroup": (
        lambda: act_on_subgroup(Endomorphism.identity(AL3), sub("a", "bb")), 3, 2
    ),
    # every letter of <a, b> <= F_3 is within rank 2, so no letter check catches it
    "swap-on-rank-3-subgroup": (
        lambda: act_on_subgroup(endo("b", "a"), sub("a", "b", alphabet=AL3)), 2, 3
    ),
    # refused for the two ranks, not for its letter 3
    "rank-2-on-rank-3-subgroup": (
        lambda: act_on_subgroup(endo("ab", "b"), sub("a", "b", "c", alphabet=AL3)), 2, 3
    ),
    "rank-3-on-rank-2-current": (
        lambda: act_on_current(Endomorphism.identity(AL3), counting_current(sub("a", "bb"))),
        3, 2,
    ),
    "swap-on-rank-3-current": (
        lambda: act_on_current(endo("b", "a"), counting_current(sub("a", "b", alphabet=AL3))),
        2, 3,
    ),
}


@pytest.mark.parametrize("name", sorted(RANK_MISMATCHES))
def test_actions_refuse_an_endomorphism_of_another_rank(name):
    act, phi_rank, h_rank = RANK_MISMATCHES[name]
    message = f"endomorphism of rank {phi_rank} cannot act on a subgroup of rank {h_rank}"
    with pytest.raises(ValueError, match=message):
        act()


def test_identity_endomorphism():
    ident = Endomorphism.identity(AL2)
    w = parse_word("abAB", AL2)
    assert apply_word(ident, w) == w
    assert is_automorphism(ident)


def test_compose():
    phi = endo("ab", "b")
    psi = endo("a", "ba")
    w = parse_word("ab", AL2)
    assert apply_word(phi.compose(psi), w) == apply_word(phi, apply_word(psi, w))


def test_is_automorphism_accepts_nielsen():
    for al in (AL2, AL3):
        gens = nielsen_generators(al)
        n = al.rank
        assert len(gens) == n + n * (n - 1) // 2 + n * (n - 1)
        for phi in gens:
            assert is_automorphism(phi)


def test_is_automorphism_rejects():
    assert not is_automorphism(endo("a", "a"))
    assert not is_automorphism(endo("aa", "b"))
    assert not is_automorphism(endo("ab", "ba"))
    assert not is_automorphism(endo("1", "b"))
    assert not is_automorphism(Endomorphism([(), ()], AL2))


def test_random_automorphism_deterministic():
    phi1 = random_automorphism(random.Random(9), AL2, 6)
    phi2 = random_automorphism(random.Random(9), AL2, 6)
    assert phi1 == phi2
    assert is_automorphism(phi1)


def test_act_on_subgroup_golden():
    phi = endo("ab", "b")
    image = act_on_subgroup(phi, sub("a"))
    assert canonical_key_based(image) == canonical_key_based(sub("ab"))
    # rank is preserved by any automorphism
    h = sub("aa", "b")
    assert reduced_rank(act_on_subgroup(phi, h)) == reduced_rank(h)


def test_act_applies_a_plain_endomorphism():
    # the CLI refuses a non-automorphism itself; the action does not ask
    squash = endo("a", "a")
    assert not is_automorphism(squash)
    image = act_on_subgroup(squash, sub("b", "aba"))
    assert canonical_key_based(image) == canonical_key_based(sub("a"))


def test_act_on_current_preserves_functionals():
    rng = random.Random(31)
    for _ in range(10):
        phi = random_automorphism(rng, AL2, 5)
        h = random_subgroup(rng, AL2)
        mu = counting_current(h)
        assert functional_rk(act_on_current(phi, mu)) == functional_rk(mu)


def test_act_on_current_respects_intersection():
    rng = random.Random(32)
    for _ in range(5):
        phi = random_automorphism(rng, AL2, 5)
        mu = counting_current(random_subgroup(rng, AL2))
        nu = counting_current(random_subgroup(rng, AL2))
        assert intersection_functional_N(
            act_on_current(phi, mu), act_on_current(phi, nu)
        ) == intersection_functional_N(mu, nu)


def test_act_on_current_reads_each_term_through_a_rebased_copy(monkeypatch):
    """Each term is acted on as the subgroup based at its vertex 0, a copy
    that shares the term's edges and departure table, and the result is
    the one the earlier rebuild through the constructor gave, on seeded
    currents at ranks 2, 3 and 7.  A hand-built term with no vertices is
    still refused for its basepoint."""
    based = []
    act = automorphisms.act_on_subgroup
    monkeypatch.setattr(
        automorphisms, "act_on_subgroup", lambda phi, h: based.append(h) or act(phi, h)
    )
    for rank in (2, 3, 7):
        al = Alphabet(rank)
        rng = random.Random(60 + rank)
        for _ in range(6):
            mu, phi = random_current(rng, al), random_automorphism(rng, al, 4)
            based.clear()
            assert act_on_current(phi, mu) == act_on_current_rebuild_oracle(phi, mu)
            assert len(based) == len(mu.terms())
            for (_, g), h in zip(mu.terms(), based):
                assert h.basepoint == 0 and h.edges is g.edges and h.moves() is g.moves()
    empty = RationalCurrent({b"empty": (Fraction(1), LabeledGraph(2, 0, []))})
    with pytest.raises(ValueError, match="basepoint 0 out of range"):
        act_on_current(Endomorphism.identity(AL2), empty)


def test_parse_automorphism_file():
    phi = parse_automorphism_file("ab\nb\n", AL2)
    assert phi == endo("ab", "b")
    with pytest.raises(ValueError):
        parse_automorphism_file("ab\n", AL2)  # one image missing
    with pytest.raises(ValueError):
        parse_automorphism_file("a\nb\nc\n", AL2)


@given(st.integers(0, 2**32 - 1))
def test_automorphism_action_invertible_on_words(seed):
    rng = random.Random(seed)
    phi = random_automorphism(rng, AL2, 4)
    w = tuple(
        rng.choice(AL2.signed_letters()) for _ in range(rng.randint(0, 6))
    )
    from subsetcurrents import reduce_word

    w = reduce_word(w)
    image = apply_word(phi, w)
    # automorphisms are injective: nontrivial words stay nontrivial
    if w:
        assert image != ()
