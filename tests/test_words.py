"""Word arithmetic: parsing, reduction, cyclic reduction."""

from fractions import Fraction

import random
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subsetcurrents import (
    IDENTITY,
    Alphabet,
    LabeledGraph,
    WordFormatError,
    concat,
    cyclic_reduce,
    format_word,
    graph_to_dot,
    invert,
    parse_word,
    reduce_word,
)

from helpers import cyclic_reduce_oracle, dot_label_oracle, parse_word_oracle, word_text_oracle

AL2 = Alphabet(2)
AL3 = Alphabet(3)

raw_words = st.lists(
    st.sampled_from(AL2.signed_letters()), max_size=12
).map(tuple)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(1)
    assert AL2.letters() == [1, 2]
    assert AL2.signed_letters() == [1, -1, 2, -2]
    assert AL3.signed_letters() == [1, -1, 2, -2, 3, -3]


def test_place_inverts_signed_and_pairs_each_letter_with_its_inverse():
    """`_place` takes each signed letter to its slot in `_signed`, which is
    its slot in a `moves()` row, and a letter's inverse sits at its place ^ 1."""
    for rank in (2, 3, 26, 4096):
        alphabet = Alphabet(rank)
        signed = alphabet.signed_letters()
        assert [alphabet._place[s] for s in signed] == list(range(2 * rank))
        for s in signed:
            assert alphabet._signed[alphabet._place[s]] == s
            assert alphabet._place[-s] == alphabet._place[s] ^ 1


def test_parse_compact():
    assert parse_word("abA", AL2) == (1, 2, -1)
    assert parse_word("aBc", AL3) == (1, -2, 3)
    assert parse_word("1", AL2) == IDENTITY
    assert parse_word("", AL2) == IDENTITY
    # parsing reduces
    assert parse_word("aA", AL2) == IDENTITY
    assert parse_word("abBA", AL2) == IDENTITY


def _parsed(text, alphabet):
    """The word parsed, or the type and message of the refusal."""
    try:
        return parse_word(text, alphabet)
    except WordFormatError as exc:
        return type(exc), str(exc)


def _parsed_by_oracle(text, alphabet):
    try:
        return parse_word_oracle(text, alphabet)
    except WordFormatError as exc:
        return type(exc), str(exc)


def test_parse_word_matches_the_character_scan_oracle():
    """The per-rank table and the letters-only shortcut give the words and
    the refusals of the earlier character scan: on 3,000 seeded texts at
    ranks 2, 3, 26 and 27, good compact and extended words, and the same
    with one stray character (punctuation, an inner space, a digit or an
    x-token in a compact word, a superscript two, a non-ASCII letter, a
    letter beyond the rank) put in at a random place or two."""
    rng = random.Random(25)
    strays = [",", ".", "-", "*", " ", "1", "7", "x1", "X2", "\u00b2", "\u00e9", "\u00df", "z", "Q", "d"]
    outcomes = set()
    for _ in range(3000):
        alphabet = Alphabet(rng.choice([2, 3, 26, 27]))
        if rng.random() < 0.5:  # compact, which rank 27 refuses
            names = Alphabet(min(alphabet.rank, 26))._names
            text = "".join(rng.choice(names[1:]) for _ in range(rng.randint(1, 12)))
        else:
            letters = [rng.choice(alphabet.signed_letters()) for _ in range(rng.randint(1, 12))]
            text = "".join(f"x{x}" if x > 0 else f"X{-x}" for x in letters)
        for _ in range(rng.choice([0, 0, 1, 2])):
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(strays) + text[at:]
        if rng.random() < 0.2:
            text = f"  {text} "
        got = _parsed(text, alphabet)
        assert got == _parsed_by_oracle(text, alphabet), (text, alphabet.rank)
        refused = len(got) == 2 and isinstance(got[0], type)
        outcomes.add(got[1].split(" ")[0] if refused else "word")
    # every kind of answer is met
    assert outcomes >= {"word", "unknown", "generator", "compact"}


def test_parse_extended():
    assert parse_word("x1x2X1", AL2) == (1, 2, -1)
    assert parse_word("X3x3x1", AL3) == (1,)


def test_parse_errors():
    with pytest.raises(WordFormatError):
        parse_word("c", AL2)  # letter outside the rank
    with pytest.raises(WordFormatError):
        parse_word("x3", AL2)  # index outside the rank
    with pytest.raises(WordFormatError):
        parse_word("a x1", AL2)  # mixed formats
    with pytest.raises(WordFormatError):
        parse_word("a!b", AL2)
    with pytest.raises(WordFormatError):
        parse_word("x0", AL2)


def test_format():
    assert format_word((1, 2, -1), AL2) == "abA"
    assert format_word(IDENTITY, AL2) == "1"
    big = Alphabet(27)
    assert format_word((27,), big) == "x27"
    assert format_word((-27, 1), big) == "X27x1"


@pytest.mark.parametrize("rank", [2, 26, 27, 200])
def test_text_and_dot_labels_match_the_earlier_renderers(rank):
    """`Alphabet._text` spells what the CLI's own join spelled, the empty
    word and every signed letter included, and `format_word` is the checked
    form of it that `parse_word` reads back.  The dot labels read from
    `_names` are the ones `graph_to_dot` named itself; rank 27 is the first
    rank with x<i> names."""
    alphabet = Alphabet(rank)
    rng = random.Random(rank)
    words = [IDENTITY, *((s,) for s in alphabet.signed_letters())]
    words += [reduce_word(rng.choices(alphabet.signed_letters(), k=12)) for _ in range(50)]
    for w in words:
        assert alphabet._text(w) == format_word(w, alphabet) == word_text_oracle(w, alphabet)
        assert parse_word(alphabet._text(w), alphabet) == w
    rose = LabeledGraph(rank, 2, [(0, 0, lab) for lab in alphabet.letters()] + [(0, 1, 1)])
    labels = re.findall(r'label="([^"]*)"', graph_to_dot(rose))
    assert labels == [dot_label_oracle(lab, rank) for _, _, lab in rose.edges]


@pytest.mark.parametrize(
    "word",
    [(1.0,), (1, 1.0), (2, -1.0), (Fraction(1),), (1, "a"), (None,), (0,), (1, 3), (-3, 2)],
)
def test_format_refuses_what_check_letter_refuses(word):
    with pytest.raises(WordFormatError):
        format_word(word, AL2)


def test_format_accepts_what_check_letter_accepts():
    # bool is an int subclass equal to 1; check_letter refuses it, and so
    # does format_word, while the plain int letters render
    assert format_word((1, -2), AL2) == "aB"
    for refused in (True, False):
        with pytest.raises(WordFormatError, match=f"letter {refused}"):
            AL2.check_letter(refused)
        with pytest.raises(WordFormatError, match=f"letter {refused}"):
            format_word((refused, -2), AL2)


def test_reduce_oracle():
    assert reduce_word((1, -1)) == IDENTITY
    assert reduce_word((1, 2, -2, -1, 2)) == (2,)
    assert reduce_word((1, 2, -1)) == (1, 2, -1)


def test_concat_invert():
    ab = parse_word("ab", AL2)
    assert concat(ab, invert(ab)) == IDENTITY
    assert concat(ab, parse_word("BA", AL2)) == IDENTITY
    assert invert((1, 2, -1)) == (1, -2, -1)


def test_cyclic_reduce_oracle():
    # AbaBa conjugates down to the single letter a by Ab
    core, conj = cyclic_reduce(parse_word("AbaBa", AL2))
    assert core == (1,)
    assert conj == (-1, 2)
    core, conj = cyclic_reduce(parse_word("ab", AL2))
    assert core == (1, 2) and conj == IDENTITY
    core, conj = cyclic_reduce(IDENTITY)
    assert core == IDENTITY and conj == IDENTITY


@given(raw_words)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r


@given(raw_words)
def test_inverse_cancels(w):
    assert concat(reduce_word(w), invert(reduce_word(w))) == IDENTITY


@given(raw_words, raw_words, raw_words)
def test_concat_associative(u, v, w):
    u, v, w = reduce_word(u), reduce_word(v), reduce_word(w)
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


@given(raw_words)
def test_cyclic_reduce_recomposes(w):
    w = reduce_word(w)
    core, conj = cyclic_reduce(w)
    assert concat(conj, core, invert(conj)) == w
    if core:
        assert core[0] != -core[-1]


@given(raw_words)
def test_cyclic_reduce_matches_oracle(w):
    # raw words too: an unreduced word may strip down to nothing
    assert cyclic_reduce(w) == cyclic_reduce_oracle(w)
    assert cyclic_reduce(reduce_word(w)) == cyclic_reduce_oracle(reduce_word(w))


def test_cyclic_reduce_is_linear():
    # a^n b a^-n strips n pairs; copying the core once per pair is quadratic
    # and takes well over a second at this n
    n = 20_000
    word = (1,) * n + (2,) + (-1,) * n
    start = time.perf_counter()
    core, conj = cyclic_reduce(word)
    assert time.perf_counter() - start < 0.5
    assert (core, conj) == ((2,), (1,) * n)


@given(raw_words)
def test_parse_format_roundtrip(w):
    w = reduce_word(w)
    assert parse_word(format_word(w, AL2), AL2) == w
