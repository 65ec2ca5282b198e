"""Filling-pair permutations on closed orientable surfaces.

A pair of curves crossing n times cuts its surface into polygons whose 4n
oriented edge labels live in {1..4n}: label 2i-1 is the i-th arc of the first
curve, 2i the i-th arc of the second, and adding 2n marks the reversed copy of
an arc.  A permutation listing each polygon's edges clockwise is a *filling
permutation*; it is characterised by alternating odd/even entries together
with the crossing equation sigma(Q^N(sigma(e))) = tau(e), where Q is the full
forward shift on labels, N = 2n, and tau advances every label along its own
curve (forward on plain labels, backward on reversed ones).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .perm import Permutation


class FillingError(ValueError):
    """A permutation failed one of the filling conditions."""


class SizeNotMultipleOf4(FillingError):
    def __init__(self, size: int):
        super().__init__(f"permutation size {size} is not a multiple of 4")
        self.size = size


class AlternationViolation(FillingError):
    def __init__(self, symbol: int):
        super().__init__(f"cycle entries do not alternate parity at symbol {symbol}")
        self.symbol = symbol


class EquationViolation(FillingError):
    def __init__(self, symbol: int):
        super().__init__(f"crossing equation fails at symbol {symbol}")
        self.symbol = symbol


def _arc_of(label: int, n: int) -> tuple[int, bool, bool]:
    """(arc, even, negative) of a label 1..4n on a pair with n crossings."""
    negative = label > 2 * n
    base = label - 2 * n if negative else label
    return (base + 1) // 2, base % 2 == 0, negative


def _label_of(arc: int, even: bool, negative: bool, n: int) -> int:
    label = 2 * arc if even else 2 * arc - 1
    return label + 2 * n if negative else label


def _arc_map(
    n: int, move: Callable[[int, bool, bool], tuple[int, bool, bool]]
) -> Permutation:
    """The relabeling that sends the label with arc coordinates (arc, even,
    negative) to the label at move(arc, even, negative), arcs taken mod n."""
    images = []
    for label in range(1, 4 * n + 1):
        arc, even, negative = move(*_arc_of(label, n))
        images.append(_label_of((arc - 1) % n + 1, even, negative, n))
    return Permutation(images)


@lru_cache(maxsize=None)
def tau(n: int) -> Permutation:
    """Advance each label along its curve: positives forward, negatives backward.

    Built once per n; a Permutation is immutable, so callers share it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _arc_map(n, lambda arc, even, neg: (arc - 1 if neg else arc + 1, even, neg))


def opposite(e: int, n: int) -> int:
    """The reversed copy of the same arc: shift by 2n mod 4n.  An involution."""
    m = 4 * n
    if not 1 <= e <= m:
        raise ValueError(f"symbol {e} out of range 1..{m}")
    return (e + 2 * n - 1) % m + 1


@lru_cache(maxsize=None)
def _opp_tau(n: int, s: int) -> tuple[int, ...]:
    """opp o tau^s by label, index 0 unused: a positive label moves s arcs
    forward along its curve and a negative one s arcs back, and each is
    reversed.  An involution; s = 0 gives opp."""
    moved = _arc_map(n, lambda arc, even, neg: (arc - s if neg else arc + s, even, not neg))
    return (0, *moved.one_line())


@dataclass(frozen=True)
class ZType:
    """Region sizes of an attachable piece, in cyclic order around its green vertex.

    Stored in the lexicographically least rotation; reflections are distinct.
    """

    quad: tuple[int, int, int, int]

    def __post_init__(self):
        q = tuple(self.quad)
        if len(q) != 4 or any(r % 2 or r < 4 for r in q):
            raise ValueError(f"type entries must be even and >= 4: {q}")
        object.__setattr__(self, "quad", min(q[i:] + q[:i] for i in range(4)))

    def matches(self, quad: tuple[int, int, int, int]) -> bool:
        """True if `quad` is a cyclic rotation of this type."""
        return ZType(tuple(quad)).quad == self.quad


@dataclass(frozen=True)
class FillingPermutation:
    """A filling permutation together with its crossing count n.

    Building one checks the filling conditions and raises what `validate`
    lists, in that order, so every instance is valid; instances are
    immutable and hashable.
    """

    sigma: Permutation
    n: int

    def __post_init__(self):
        n, m = self.n, self.sigma.size
        if m % 4 != 0 or m == 0:
            raise SizeNotMultipleOf4(m)
        if n != m // 4:
            raise FillingError(f"n={n} inconsistent with permutation size {m}")
        imgs = self.sigma.one_line()
        # sigma is a bijection, so it alternates exactly when it sends the odd
        # labels onto the even ones; only a failure walks for the first symbol
        if sorted(imgs[::2]) != list(range(2, m + 1, 2)):
            for e in range(1, m + 1):
                if (imgs[e - 1] - e) % 2 == 0:
                    raise AlternationViolation(e)
        # sigma(opp(sigma(e))) = tau(e) as one gather: opp shifts labels by
        # 2n, so sigma o opp by label is sigma's images rotated by 2n
        t = tau(n).one_line()
        sigma_opp = (0, *imgs[2 * n:], *imgs[:2 * n])
        if tuple(map(sigma_opp.__getitem__, imgs)) != t:
            opp = _opp_tau(n, 0)
            for e in range(1, m + 1):
                if imgs[opp[imgs[e - 1]] - 1] != t[e - 1]:
                    raise EquationViolation(e)

    @property
    def size(self) -> int:
        return 4 * self.n

    @cached_property
    def regions(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(c) for c in self.sigma.cycles())

    @property
    def region_count(self) -> int:
        return len(self.regions)

    def genus(self) -> int:
        n, c = self.n, self.region_count
        assert (n - c) % 2 == 0, "parity of region count is forced by validity"
        return 1 + (n - c) // 2

    def is_minimal(self) -> bool:
        """True when the complement is a single polygon (n = 2g-1)."""
        return self.region_count == 1

    def vertex_orbit(self, e: int) -> tuple[int, ...]:
        """The four left edges of the crossing at e, in traversal order.

        The left turn A = opp o sigma squares to opp o tau by the crossing
        equation, so the orbit is (e, A e, opp tau e, opp tau A e).
        """
        m = 4 * self.n
        if not 1 <= e <= m:
            raise ValueError(f"symbol {e} out of range 1..{m}")
        opp_tau = _opp_tau(self.n, 1)
        a = _opp_tau(self.n, 0)[self.sigma.one_line()[e - 1]]
        return e, a, opp_tau[e], opp_tau[a]

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """All crossings as 4-element left-edge orbits, sorted by minimum.

        Each orbit holds one label of each parity in each half (A changes
        parity, opp tau keeps it and swaps halves), so reading the orbit of
        every positive odd label meets each crossing once.
        """
        return tuple(sorted(
            tuple(sorted(self.vertex_orbit(e))) for e in range(1, 2 * self.n, 2)
        ))

    @cached_property
    def green_vertices(self) -> tuple[tuple[int, ...], ...]:
        """Crossings adjacent to every region."""
        c = self.region_count
        if c == 1:
            return self.vertices
        region_of = [0] * (self.size + 1)
        for idx, region in enumerate(self.regions):
            for sym in region:
                region_of[sym] = idx
        return tuple(v for v in self.vertices if len({region_of[s] for s in v}) == c)

    def green_normalized(self) -> bool:
        """True when the crossing at label 2n-1 has left edges {2n-1..2n+2}.

        This is the labeling convention in which both curves begin and end at
        a green vertex; piece assembly requires it.
        """
        n = self.n
        want = {2 * n - 1, 2 * n, 2 * n + 1, 2 * n + 2}
        orbit = set(self.vertex_orbit(2 * n - 1))
        return orbit == want and tuple(sorted(orbit)) in self.green_vertices

    def is_z_piece(self, k: int) -> bool:
        """True for an attachable genus-k piece: n = 2k+2, four regions, each
        of at least 4 labels, and a green vertex.  The genus is then
        1 + (n - 4)/2 = k.

        A piece is a filling pair in minimal position, so it has no bigon
        (a region of 2 labels); the size rule is the one `ZType` enforces.
        """
        return (
            self.n == 2 * k + 2
            and self.region_count == 4
            and all(len(r) >= 4 for r in self.regions)
            and len(self.green_vertices) > 0
        )

    def z_type(self) -> ZType:
        """Region sizes in the cyclic order seen from a green vertex."""
        if not self.green_vertices:
            raise FillingError("no vertex is adjacent to every region")
        n = self.n
        normalized = tuple(sorted(self.vertex_orbit(2 * n - 1)))
        anchor = normalized if normalized in self.green_vertices else self.green_vertices[0]
        region_size = [0] * (self.size + 1)
        for region in self.regions:
            for sym in region:
                region_size[sym] = len(region)
        sizes = tuple(region_size[s] for s in self.vertex_orbit(min(anchor)))
        if min(sizes) < 4:
            raise FillingError(f"a region around the green vertex is a bigon: {sizes}")
        return ZType(sizes)

    def __repr__(self) -> str:
        return f"<FillingPermutation n={self.n} c={self.region_count} {self.sigma.cycle_string()}>"


def validate(sigma: Permutation, n: int | None = None) -> FillingPermutation:
    """Check the two filling conditions and wrap sigma; n defaults to
    sigma's size / 4.

    Raises SizeNotMultipleOf4, FillingError (n inconsistent with the size),
    AlternationViolation (first offending symbol), or EquationViolation
    (first symbol where the crossing equation fails).
    """
    return FillingPermutation(sigma, sigma.size // 4 if n is None else n)

