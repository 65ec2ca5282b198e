"""Exact permutation algebra on the symbols {1..M}, with cycle-notation text I/O.

Everything downstream (filling-pair validation, relabeling groups, surgery,
census) is built on the `Permutation` class defined here.  Symbols are always
1-based; composition is right-to-left: ``(p * q)(e) == p(q(e))``.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, NoReturn, Sequence


class CycleParseError(ValueError):
    """Bad cycle-notation input; `position` is the 0-based offset in the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Permutation:
    """An immutable bijection on {1..M}, held as the tuple of its images.

    `Permutation(images)` checks every image.  The builders whose output is
    a bijection because their inputs are skip that check through `_built`:
    `__mul__`, `inverse`, `conjugated_by`, `__pow__`, `from_cycles` after
    its own symbol checks, and, in `twist`, the relabeling group and the
    `are_equivalent` witness.
    Images that nothing proves a bijection keep the checked constructor:
    `surgery.assemble`'s splice, whose refusal is a `CaseGap` guard;
    `filling._arc_map`, whose moves are arbitrary callables; census
    representatives, read back from their keys; and one-line images given
    by a caller.  Cycle text, from a file or a caller, reaches `_built`
    only through `from_cycles`' own checks on every symbol.
    """

    __slots__ = ("_imgs",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        m = len(imgs)
        seen = bytearray(m + 1)
        for v in imgs:
            if not isinstance(v, int) or not 1 <= v <= m or seen[v]:
                raise ValueError(f"not a bijection on 1..{m}: images {imgs!r}")
            seen[v] = 1
        self._imgs = imgs

    @classmethod
    def _built(cls, images: tuple[int, ...]) -> "Permutation":
        """The permutation with these images, unchecked.

        Only for a tuple of ints that is a bijection on 1..len(images) by
        construction, as the class docstring lists; a list or `bytes` here
        would break equality and hashing with checked permutations.
        """
        p = object.__new__(cls)
        p._imgs = images
        return p

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], size: int) -> "Permutation":
        """Product of cycles, leftmost cycle applied first.

        Cycles need not be disjoint; for disjoint cycles the order is
        immaterial.  Entries must be distinct within each cycle and lie in
        {1..size}.
        """
        if size < 0:
            raise ValueError("size must be nonnegative")
        # the product so far and its inverse, index 0 unused: a cycle applied
        # after it moves only the images its symbols are
        imgs = list(range(size + 1))
        inv = list(range(size + 1))
        for cycle in cycles:
            # operator.index refuses a float and makes an int of any other
            # integer type, so only ints reach the images
            cyc = list(map(operator.index, cycle))
            if not cyc:
                continue
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated symbol in cycle {cyc!r}")
            for s in cyc:
                if not 1 <= s <= size:
                    raise ValueError(f"symbol {s} out of range 1..{size}")
            preimages = [inv[s] for s in cyc]
            for e, t in zip(preimages, cyc[1:] + cyc[:1]):
                imgs[e] = t
                inv[t] = e
        return cls._built(tuple(imgs[1:]))

    @classmethod
    def from_cycle_string(cls, text: str, size: int) -> "Permutation":
        # the parser checks symbols against the size, so refuse a bad size first
        if size < 0:
            raise ValueError("size must be nonnegative")
        return cls.from_cycles(parse_cycle_text(text, size), size)

    @property
    def size(self) -> int:
        return len(self._imgs)

    def __call__(self, e: int) -> int:
        if not 1 <= e <= len(self._imgs):
            raise ValueError(f"symbol {e} out of range 1..{len(self._imgs)}")
        return self._imgs[e - 1]

    def one_line(self) -> tuple[int, ...]:
        """Images of 1..M in order."""
        return self._imgs

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition ``(self * other)(e) == self(other(e))``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.size != self.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        s = self._imgs
        return Permutation._built(tuple(s[v - 1] for v in other._imgs))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for e, v in enumerate(self._imgs, start=1):
            inv[v - 1] = e
        return Permutation._built(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        """k-fold composition; negative k gives powers of the inverse."""
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = Permutation._built(tuple(range(1, self.size + 1)))
        while k:
            if k & 1:
                result = base * result
            base = base * base
            k >>= 1
        return result

    def conjugated_by(self, t: "Permutation") -> "Permutation":
        """Return t * self * t^{-1} (relabeling of self by t)."""
        if t.size != self.size:
            raise ValueError(f"size mismatch: {self.size} vs {t.size}")
        timg = t._imgs
        out = [0] * self.size
        for e, v in enumerate(self._imgs, start=1):
            out[timg[e - 1] - 1] = timg[v - 1]
        return Permutation._built(tuple(out))

    def cycles(self) -> list[list[int]]:
        """Disjoint cycles covering {1..M}, min-rotated, sorted by minimum.

        Fixed points are included as singleton cycles.
        """
        imgs = (0, *self._imgs)
        seen = bytearray(len(imgs))
        out = []
        for start in range(1, len(imgs)):
            if seen[start]:
                continue
            cyc = []
            e = start
            while not seen[e]:
                seen[e] = 1
                cyc.append(e)
                e = imgs[e]
            out.append(cyc)
        return out

    def cycle_string(self) -> str:
        """Canonical cycle notation; fixed points omitted, identity is "()"."""
        parts = [
            "(" + ",".join(str(s) for s in c) + ")"
            for c in self.cycles()
            if len(c) > 1
        ]
        return "".join(parts) if parts else "()"

    def to_record(self) -> dict:
        """Structured form {"size": M, "cycles": [[...], ...]} used by file I/O."""
        return {"size": self.size, "cycles": [c for c in self.cycles() if len(c) > 1]}

    @classmethod
    def from_record(cls, record: dict) -> "Permutation":
        return cls.from_cycles(record["cycles"], record["size"])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._imgs == other._imgs

    def __hash__(self) -> int:
        return hash(self._imgs)

    def __repr__(self) -> str:
        return f"Permutation.from_cycle_string({self.cycle_string()!r}, {self.size})"


_SPACE = re.compile(r"\s*")
# one cycle and the whitespace after it, its symbols in group 1 ("()" has
# none); \s and \d are exactly str.isspace and str.isdecimal
_CYCLE = re.compile(r"\(\s*(?:\)|(\d+\s*(?:,\s*\d+\s*)*)\))\s*")


def parse_cycle_text(text: str, size: int | None) -> list[list[int]]:
    """Parse "(1,2,3)(4,5)" into [[1,2,3],[4,5]], validating symbols against size.

    Whitespace is tolerated anywhere.  Empty input and "()" denote the empty
    product.  Errors report the offending position in the input text.  With
    size None only the notation is checked: symbols out of range or repeated
    in their cycle are left to the caller.
    """
    cycles: list[list[int]] = []
    at, end = _SPACE.match(text).end(), len(text)
    while at < end:
        match = _CYCLE.match(text, at)
        if match is None:
            _raise_first_error(text, at, size)
        symbols = match[1]
        try:
            # int() keeps "\x1c".."\x1f" around a symbol, which strip() removes
            cycle = list(map(int, map(str.strip, symbols.split(",")))) if symbols else []
        except ValueError:  # a symbol longer than int() converts
            _raise_first_error(text, at, size)
        if size is not None and cycle and (
            min(cycle) < 1 or max(cycle) > size or len(set(cycle)) < len(cycle)
        ):
            _raise_first_error(text, at, size)
        cycles.append(cycle)
        at = match.end()
    return cycles


def _raise_first_error(text: str, at: int, size: int | None) -> NoReturn:
    """Raise the first error, in text order, of the cycle starting at `at`,
    which `_CYCLE` refused or whose symbols failed a check; with size None,
    the first error of notation.

    A symbol is the longest run of digits (`str.isdigit`), converted by
    `int()`, so a digit that is not decimal, such as "²", raises
    `int()`'s ValueError.
    """
    if text[at] != "(":
        raise CycleParseError(f"expected '(' but found {text[at]!r}", at)
    cycle: set[int] = set()
    at = _SPACE.match(text, at + 1).end()
    while True:
        stop = at
        while stop < len(text) and text[stop].isdigit():
            stop += 1
        if stop == at:
            found = text[at] if at < len(text) else "end of input"
            raise CycleParseError(f"expected a symbol but found {found!r}", at)
        sym = int(text[at:stop])
        if size is not None:
            if not 1 <= sym <= size:
                raise CycleParseError(f"symbol {sym} out of range 1..{size}", at)
            if sym in cycle:
                raise CycleParseError(f"repeated symbol {sym} in cycle", at)
            cycle.add(sym)
        at = _SPACE.match(text, stop).end()
        if not text.startswith(",", at):
            # a ")" here would close a cycle without an error
            found = text[at] if at < len(text) else "end of input"
            raise CycleParseError(f"expected ',' or ')' but found {found!r}", at)
        at = _SPACE.match(text, at + 1).end()
