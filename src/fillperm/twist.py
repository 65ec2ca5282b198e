"""The finite relabeling group acting on filling-permutation labels.

Relabeling an oriented filling pair (cycling either curve's arc labels,
reversing an orientation, or swapping the two curves) conjugates its filling
permutation by an element of the group G generated by kappa, delta, eta, mu
below.  G is written in closed form, G = {kappa^p delta^q h : 0 <= p, q < n,
h in <eta, mu>}, with <eta, mu> of order 8, so |G| = 8n^2; it is built once per
n as sorted one-line tuples.  For minimally-intersecting pairs, conjugacy
under G is exactly homeomorphism equivalence; for non-minimal pairs it is
sufficient but not known to be necessary.
"""

from __future__ import annotations

from functools import lru_cache

from .filling import FillingPermutation
from .perm import Permutation

MAX_N = 16


class GroupTooLarge(ValueError):
    """The crossing count exceeds the configured bound max_n."""


@lru_cache(maxsize=None)
def generators(n: int) -> tuple[Permutation, Permutation, Permutation, Permutation]:
    """(kappa, delta, eta, mu): cycle the first curve's labels, cycle the
    second curve's labels, reverse the first curve's orientation, swap the
    two curves.

    Reversing a curve's orientation both bars every label and renumbers the
    arcs in the reversed traversal order (arc i becomes arc 2-i mod n); the
    plain bar-swap alone is a relabeling of nothing for n >= 3 and would not
    preserve validity under conjugation.  Built once per n; a Permutation is
    immutable, so callers share them.
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


def _compose(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """One-line images of s o t: apply t, then s."""
    return tuple(s[v - 1] for v in t)


def _powers(g: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """g^0, g^1, ..., g^(count-1) as one-line tuples."""
    out = [tuple(range(1, len(g) + 1))]
    for _ in range(count - 1):
        out.append(_compose(g, out[-1]))
    return out


@lru_cache(maxsize=None)
def _group(n: int) -> tuple[tuple[int, ...], ...]:
    """The relabeling group as sorted one-line tuples.

    kappa and delta cycle disjoint label sets, so they commute and generate
    n^2 elements kappa^p delta^q; eta and mu are involutions whose product
    has order 4, so they generate the dihedral group of order 8; every
    element is kappa^p delta^q h for exactly one such pair and h.
    """
    kappa, delta, eta, mu = (g.one_line() for g in generators(n))
    rotations = _powers(_compose(eta, mu), 4)
    dihedral = rotations + [_compose(r, eta) for r in rotations]
    shifts = [_compose(kp, dq) for kp in _powers(kappa, n) for dq in _powers(delta, n)]
    return tuple(sorted(_compose(s, h) for s in shifts for h in dihedral))


def _bounded_group(n: int, max_n: int) -> tuple[tuple[int, ...], ...]:
    if n > max_n:
        raise GroupTooLarge(f"n={n} exceeds the configured bound {max_n}")
    return _group(n)


def twist_group(n: int, max_n: int = MAX_N) -> tuple[Permutation, ...]:
    """Every relabeling kappa^p delta^q h (0 <= p, q < n, h in <eta, mu>),
    8n^2 elements in sorted one-line order."""
    return tuple(Permutation(t) for t in _bounded_group(n, max_n))


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
    group = _bounded_group(fp1.n, max_n)
    s1 = fp1.sigma.one_line()
    s2 = fp2.sigma.one_line()
    for t in group:
        # t sigma1 t^-1 sends t(1) to t(sigma1(1)): one coordinate rules out most t
        if t[s1[0] - 1] == s2[t[0] - 1] and _conjugate_oneline(s1, t) == s2:
            return Permutation(t)
    return None


def canonical_form(fp: FillingPermutation, max_n: int = MAX_N) -> Permutation:
    """Lexicographically least conjugate of sigma under the relabeling group.

    Equal for two filling permutations exactly when `are_equivalent` succeeds.
    """
    s = fp.sigma.one_line()
    best = min(_conjugate_oneline(s, t) for t in _bounded_group(fp.n, max_n))
    return Permutation(best)
