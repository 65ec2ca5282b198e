"""The finite relabeling group acting on filling-permutation labels.

Relabeling an oriented filling pair (cycling either curve's arc labels,
reversing an orientation, or swapping the two curves) conjugates its filling
permutation by an element of the group G generated by kappa, delta, eta, mu
below.  G is written in closed form, G = {kappa^p delta^q h : 0 <= p, q < n,
h in <eta, mu>}, with <eta, mu> of order 8, so |G| = 8n^2.  It is built once
per n as one table of byte gathers, from which least conjugates, equivalence
witnesses and the orderly census search all read.  For minimally-intersecting
pairs, conjugacy under G is exactly homeomorphism equivalence; for non-minimal
pairs it is sufficient but not known to be necessary.
"""

from __future__ import annotations

from functools import lru_cache

from .filling import FillingPermutation, _arc_map
from .perm import Permutation

# the relabeling table and the census key labels 1..4n by bytes
BYTE_MAX_N = 63
_IDENT = bytes(range(256))


class BoundExceeded(ValueError):
    """The crossing count n lies outside 1 <= n <= BYTE_MAX_N."""


def _check_n(n: int) -> None:
    if n < 1:
        raise BoundExceeded("n must be >= 1")
    if n > BYTE_MAX_N:
        raise BoundExceeded(f"n={n} exceeds {BYTE_MAX_N}: labels 1..4n are keyed by bytes")


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
    kappa = _arc_map(n, lambda arc, even, neg: (arc + (not even), even, neg))
    delta = _arc_map(n, lambda arc, even, neg: (arc + even, even, neg))
    eta = _arc_map(n, lambda arc, even, neg: (arc, even, neg) if even else (2 - arc, even, not neg))
    mu = _arc_map(n, lambda arc, even, neg: (arc, not even, neg))
    return kappa, delta, eta, mu


# One table holds 8n^2 translate tables of 256 bytes (about 20 MB at n = 63);
# 16 covers the crossing counts of a query stream and of a census run.
@lru_cache(maxsize=16)
def _slice_table(n: int) -> tuple[tuple[tuple[bytes, bytes] | None, ...], ...]:
    """The relabeling group as cells: cell [x - 1][y] holds the one t with
    t^-1(1) = x and t^-1(2) = y, as the pair (one-line bytes of t^-1, t as
    a 256-byte translate table), so each t is filed once; a cell whose y has
    the parity of x (or is 0) holds None.

    The t with t(x) = 1 form one coset of the stabilizer of label 1, which
    is <delta, R> (R = surgery._reverse_second(n)) of order 2n and permutes
    the 2n even labels freely and transitively, so t^-1(2) takes each of
    the 2n labels of the other parity once.

    Built from the closed form on translate tables, where s o t is
    `t.translate(s)` and t^-1 is `bytes.maketrans(t, identity)`.  kappa and
    delta cycle disjoint label sets, so they commute; eta and mu are
    involutions whose product has order 4, so they generate the dihedral
    group of order 8; each element is kappa^p delta^q h in exactly one way.
    """
    m = 4 * n
    kappa, delta, eta, mu = (b"\0" + bytes(g.one_line()) + _IDENT[m + 1 :] for g in generators(n))
    dihedral = []
    rotation = _IDENT
    for _ in range(4):
        dihedral += [rotation, eta.translate(rotation)]
        rotation = rotation.translate(mu.translate(eta))
    table = [[None] * (m + 1) for _ in range(m)]
    kappa_p = _IDENT
    for _ in range(n):
        shift = kappa_p
        for _ in range(n):
            for h in dihedral:
                t = h.translate(shift)
                inv = bytes.maketrans(t, _IDENT)
                table[inv[1] - 1][inv[2]] = (inv[1 : m + 1], t)
            shift = shift.translate(delta)
        kappa_p = kappa_p.translate(kappa)
    return tuple(map(tuple, table))


def _slice_conjugates(one: bytes) -> list[bytes]:
    """t sigma t^-1 for the 4n relabelings t that carry sigma, given by its
    one-line bytes, into the slice S = {sigma : sigma(1) = 2}: for each
    label x, the t with t(x) = 1 and t(sigma(x)) = 2, in order of x.

    The head of t sigma t^-1 is t(sigma(t^-1(1))), so these t are the cells
    (x, sigma(x)) of `_slice_table`.  The least conjugate has head 2, the
    least head a conjugate can have, so every t that carries sigma to it is
    among them.
    """
    at = b"\0" + one + bytes(255 - len(one))
    return [
        inv.translate(at).translate(t)
        for inv, t in map(tuple.__getitem__, _slice_table(len(one) // 4), one)
    ]


def _least(fp: FillingPermutation) -> tuple[bytes, list[bytes]]:
    """The least conjugate of sigma and every t that carries sigma to it."""
    _check_n(fp.n)
    one = bytes(fp.sigma.one_line())
    conjugates = _slice_conjugates(one)
    least = min(conjugates)
    cells = map(tuple.__getitem__, _slice_table(fp.n), one)
    return least, [t for c, (_, t) in zip(conjugates, cells) if c == least]


def twist_group(n: int) -> tuple[Permutation, ...]:
    """Every relabeling kappa^p delta^q h (0 <= p, q < n, h in <eta, mu>),
    8n^2 elements in sorted one-line order."""
    _check_n(n)
    # every translate table is a product of the generators' tables, so each
    # element is a bijection by construction and is built unchecked
    elements = sorted(cell[1] for row in _slice_table(n) for cell in row if cell)
    return tuple(Permutation._built(tuple(t[1 : 4 * n + 1])) for t in elements)


def are_equivalent(fp1: FillingPermutation, fp2: FillingPermutation) -> Permutation | None:
    """A relabeling witness t with t * sigma1 * t^{-1} == sigma2, or None.

    The witnesses are u2^-1 u, for one u2 carrying sigma2 to its least
    conjugate and every u carrying sigma1 to the same; the least of them in
    one-line order is returned.

    For minimally-intersecting pairs this decides homeomorphism equivalence;
    for non-minimal pairs a witness certifies equivalence of oriented
    relabelings only (sufficient, not necessary).
    """
    if fp1.n != fp2.n:
        raise ValueError(f"crossing counts differ: {fp1.n} vs {fp2.n}")
    least1, to_least1 = _least(fp1)
    least2, to_least2 = _least(fp2)
    if least1 != least2:
        return None
    back = bytes.maketrans(to_least2[0], _IDENT)
    witness = min(u.translate(back) for u in to_least1)
    return Permutation._built(tuple(witness[1 : 4 * fp1.n + 1]))
