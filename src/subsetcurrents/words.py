"""Freely reduced words over a fixed finite basis.

A letter is a nonzero signed integer: +i is the i-th generator, -i its
inverse.  A word is a tuple of letters with no adjacent cancelling pair.
All functions keep that invariant, so callers never see an unreduced word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import SizeLimitError, WordFormatError

Word = tuple[int, ...]

IDENTITY: Word = ()

# Highest rank an `Alphabet` or a `LabeledGraph` accepts.  A departure row
# holds one 8-byte slot per signed letter, 2N in all, so 4096 keeps a row
# at 64 KiB.
MAX_RANK = 4096

_EXTENDED_TOKEN = re.compile(r"([xX])(\d+)")


def _int(value, what: str) -> int:
    """The value, if it is a plain int; else a ValueError that names it."""
    if type(value) is not int:  # bool is a subclass of int, and is refused too
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Alphabet:
    """Basis of a free group of the given rank."""

    rank: int

    def __post_init__(self):
        if _int(self.rank, "rank") < 2:
            raise ValueError(f"rank must be at least 2, got {self.rank}")
        if self.rank > MAX_RANK:
            raise SizeLimitError(f"rank {self.rank} exceeds the ceiling of {MAX_RANK}")

    def letters(self) -> list[int]:
        return list(range(1, self.rank + 1))

    def signed_letters(self) -> list[int]:
        """All 2N letters in the fixed order a1 < a1^-1 < a2 < ..."""
        out = []
        for i in self.letters():
            out.append(i)
            out.append(-i)
        return out

    @cached_property
    def _names(self) -> tuple[str, ...]:
        """Text of each signed letter: a/A.. up to rank 26, else x<i>/X<i>.

        Indexed by the letter itself: +i at position i and, by negative
        indexing, -i at position 2N + 1 - i (position 0 is never read), as
        `_place` is.  A tuple, because hash(-1) == hash(-2) would make a
        dict keyed by signed letters probe past one of them on every
        lookup."""
        compact = self.rank <= 26
        up = [chr(ord("a") + i - 1) if compact else f"x{i}" for i in self.letters()]
        return ("", *up, *(name.upper() for name in reversed(up)))

    @cached_property
    def _signed(self) -> tuple[int, ...]:
        """`signed_letters()` as a tuple, built once per alphabet: the
        letter at each place of a `LabeledGraph.moves()` row."""
        return tuple(self.signed_letters())

    @cached_property
    def _place(self) -> tuple[int, ...]:
        """Place of each signed letter in `_signed`, indexed by the letter
        as `_names` is: +i sits at 2i - 2 and -i at 2i - 1, so a letter's
        inverse sits at its place ^ 1.  The inverse of `_signed`, and the
        slot of the letter in a `LabeledGraph.moves()` row."""
        places = range(1, self.rank + 1)
        return (0, *(2 * i - 2 for i in places), *(2 * i - 1 for i in reversed(places)))

    @cached_property
    def _compact(self) -> dict[str, int]:
        """Signed letter of each compact character within the rank: a/A..
        for +1/-1 and so on.  Read only up to rank 26."""
        signed = self.signed_letters()
        return dict(zip(map(self._names.__getitem__, signed), signed))

    def _text(self, w: Word) -> str:
        """The word's letters spelled through `_names`, or "1" for the
        empty word.  The one place a word becomes text; it checks no
        letter, so a caller with a word from outside checks it first."""
        return "".join(map(self._names.__getitem__, w)) or "1"

    def check_letter(self, x: int) -> None:
        self.check_word((x,))

    def check_word(self, w: Word) -> None:
        """Refuse the first letter that is not a plain nonzero int within
        the rank (a bool, float or int subclass would compare equal to one).
        One inline test a letter: no call per letter, and no set built for
        a short word, which is where most words are checked."""
        rank = self.rank
        for x in w:
            if type(x) is not int or x == 0 or abs(x) > rank:
                raise WordFormatError(f"letter {x!r} is not valid for rank {rank}")


def reduce_word(letters) -> Word:
    """Freely reduce a letter sequence by a single stack scan."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def concat(*words: Word) -> Word:
    out: list[int] = []
    for w in words:
        out.extend(w)
    return reduce_word(out)


def invert(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w as conj * core * conj^-1 with core cyclically reduced.

    Returns (core, conj).  The core of a nonempty word is nonempty.
    """
    m = len(w)
    k = 0  # matching pairs stripped from the two ends
    while m - 2 * k >= 2 and w[k] == -w[m - 1 - k]:
        k += 1
    return tuple(w[k:m - k]), tuple(w[:k])


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a word in compact (aBc) or extended (x1X2x3) format.

    The two formats may not be mixed inside one string.  The result is
    freely reduced.  "1" and "" both denote the identity.
    """
    s = text.strip()
    if s in ("", "1"):
        return IDENTITY
    # a text of letters only has no digit, so only the others are scanned
    if not s.isalpha() and any(ch.isdigit() for ch in s):
        return reduce_word(_parse_extended(s, alphabet))
    return reduce_word(_parse_compact(s, alphabet))


def _parse_compact(s: str, alphabet: Alphabet) -> list[int]:
    """Each character through the rank's table; the first character
    missing from it is an ASCII letter beyond the rank or an unknown token."""
    if alphabet.rank > 26:
        raise WordFormatError(
            f"compact format covers ranks up to 26, not {alphabet.rank}; use x<i>/X<i>"
        )
    try:
        return list(map(alphabet._compact.__getitem__, s))
    except KeyError as exc:
        ch = exc.args[0]
        if ch.isascii() and ch.isalpha():
            raise WordFormatError(f"generator {ch!r} exceeds rank {alphabet.rank}") from None
        raise WordFormatError(f"unknown token {ch!r} in word {s!r}") from None


def _parse_extended(s: str, alphabet: Alphabet) -> list[int]:
    letters = []
    pos = 0
    for m in _EXTENDED_TOKEN.finditer(s):
        if m.start() != pos:
            raise WordFormatError(f"unknown token at {s[pos:m.start()]!r} in word {s!r}")
        idx = int(m.group(2))
        if idx < 1 or idx > alphabet.rank:
            raise WordFormatError(f"generator index {idx} exceeds rank {alphabet.rank}")
        letters.append(idx if m.group(1) == "x" else -idx)
        pos = m.end()
    if pos != len(s):
        raise WordFormatError(f"unknown token at {s[pos:]!r} in word {s!r}")
    return letters


def format_word(w: Word, alphabet: Alphabet) -> str:
    """Render a word; inverse of parse_word on reduced words."""
    alphabet.check_word(w)
    return alphabet._text(w)
