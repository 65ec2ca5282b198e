"""The finite relabeling group acting on filling-permutation labels.

Relabeling an oriented filling pair (cycling either curve's arc labels,
reversing an orientation, or swapping the two curves) conjugates its filling
permutation by an element of the group generated by kappa, delta, eta, mu
below.  For minimally-intersecting pairs, conjugacy under this group is
exactly homeomorphism equivalence; for non-minimal pairs it is sufficient but
not known to be necessary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .filling import FillingPermutation
from .perm import Permutation

MAX_N = 16
MAX_ELEMENTS = 10**6


class GroupTooLarge(ValueError):
    """Closure exceeded the configured bound."""


def generators(n: int) -> tuple[Permutation, Permutation, Permutation, Permutation]:
    """(kappa, delta, eta, mu): cycle the first curve's labels, cycle the
    second curve's labels, reverse the first curve's orientation, swap the
    two curves.

    Reversing a curve's orientation both bars every label and renumbers the
    arcs in the reversed traversal order (arc i becomes arc 2-i mod n); the
    plain bar-swap alone is a relabeling of nothing for n >= 3 and would not
    preserve validity under conjugation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = 4 * n
    kappa = Permutation.from_cycles(
        [list(range(1, 2 * n, 2)), list(range(2 * n + 1, m, 2))], m
    )
    delta = Permutation.from_cycles(
        [list(range(2, 2 * n + 1, 2)), list(range(2 * n + 2, m + 1, 2))], m
    )
    imgs = list(range(1, m + 1))
    for i in range(1, n + 1):
        j = (2 - i) % n or n
        imgs[(2 * i - 1) - 1] = 2 * j - 1 + 2 * n
        imgs[(2 * i - 1 + 2 * n) - 1] = 2 * j - 1
    eta = Permutation(imgs)
    mu = Permutation.from_cycles(
        [[e, e + 1] for e in range(1, m, 2)], m
    )
    return kappa, delta, eta, mu


def _conjugate_oneline(sigma: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(sigma)
    for e0, v in enumerate(sigma):
        out[t[e0] - 1] = t[v - 1]
    return tuple(out)


@lru_cache(maxsize=None)
def _closure(n: int, max_elements: int) -> tuple[tuple[int, ...], ...]:
    gens = [g.one_line() for g in generators(n)]
    identity = tuple(range(1, 4 * n + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for t in frontier:
            for g in gens:
                prod = tuple(g[v - 1] for v in t)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
                    if len(seen) > max_elements:
                        raise GroupTooLarge(
                            f"relabeling-group closure exceeded {max_elements} elements"
                        )
        frontier = new
    return tuple(sorted(seen))


@dataclass(frozen=True)
class TwistGroup:
    n: int
    elements: tuple[Permutation, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in self.elements


def twist_group(n: int, max_n: int = MAX_N, max_elements: int = MAX_ELEMENTS) -> TwistGroup:
    """Full closure of the four generators, breadth-first, deduplicated."""
    if n > max_n:
        raise GroupTooLarge(f"n={n} exceeds the configured bound {max_n}")
    return TwistGroup(n, tuple(Permutation(t) for t in _closure(n, max_elements)))


def are_equivalent(
    fp1: FillingPermutation, fp2: FillingPermutation, max_n: int = MAX_N
) -> Permutation | None:
    """A relabeling witness t with t * sigma1 * t^{-1} == sigma2, or None.

    For minimally-intersecting pairs this decides homeomorphism equivalence;
    for non-minimal pairs a witness certifies equivalence of oriented
    relabelings only (sufficient, not necessary).
    """
    if fp1.n != fp2.n:
        raise ValueError(f"crossing counts differ: {fp1.n} vs {fp2.n}")
    if fp1.n > max_n:
        raise GroupTooLarge(f"n={fp1.n} exceeds the configured bound {max_n}")
    s1 = fp1.sigma.one_line()
    s2 = fp2.sigma.one_line()
    for t in _closure(fp1.n, MAX_ELEMENTS):
        if _conjugate_oneline(s1, t) == s2:
            return Permutation(t)
    return None


def canonical_form(fp: FillingPermutation, max_n: int = MAX_N) -> Permutation:
    """Lexicographically least conjugate of sigma under the relabeling group.

    Equal for two filling permutations exactly when `are_equivalent` succeeds.
    """
    if fp.n > max_n:
        raise GroupTooLarge(f"n={fp.n} exceeds the configured bound {max_n}")
    s = fp.sigma.one_line()
    best = min(_conjugate_oneline(s, t) for t in _closure(fp.n, MAX_ELEMENTS))
    return Permutation(best)
