"""Connected-sum surgery on filling permutations.

Assembly splices an attachable genus-k piece (a Z piece: 2k+2 crossings, four
regions, a green vertex) into a minimal host at a chosen crossing, producing a
minimal filling permutation of the summed genus.  Decomposition runs the other
way: a minimal filling permutation of genus g splits as (genus l) + (genus k
piece) exactly when four anchor edges x, a, y, b satisfy six equations tying
sigma, the opposite-edge shift, and the arc-order rotation together, and the
curve through them cuts off the piece.  One rule decides that last clause
wherever a witness is judged: the four runs of the region cycle that become
the piece's regions must be pairwise disjoint and closed under the opposite
shift.  The search judges the candidates one anchor scan proposes; a
caller's anchors are read directly, by a check that accepts exactly that
scan's candidates (a test ties the two), and judged by the same rule before
anything is cut.  Both directions work purely on labels, through one arc-shift
relabeling, `AssemblyMap`: on each curve the piece's inner arcs form one
cyclic block right after the site arc and the host's arcs fill the rest in
order, and piece orientations are reversed.  When the two crossings have
opposite chirality, assembly first relabels the piece by the element of the
relabeling group that reverses its second curve.  Disassembly runs the same
map backwards.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NoReturn

from .filling import FillingPermutation, ZType, _arc_map, _arc_table, _opp_tau, validate
from .perm import Permutation

Entry = tuple[int, bool]  # (symbol, decorated); decoration marks duplicate anchor copies


class SurgeryError(ValueError):
    pass


class CaseGap(RuntimeError):
    """The relabeling map missed a symbol, produced a malformed splice, or
    pulled an accepted cut back to the wrong pieces; an internal consistency
    bug, where `SurgeryError` marks bad input."""


@dataclass(frozen=True)
class AttachmentSite:
    """The positive odd (i) and positive even (j) edges pointing into a crossing."""

    i: int
    j: int


def attachment_site(host: FillingPermutation, i: int) -> AttachmentSite:
    """Resolve the crossing entered by positive odd edge i on a minimal host."""
    if not host.is_minimal():
        raise SurgeryError("host must be minimal (a single complementary region)")
    n = host.n
    if not (1 <= i <= 2 * n and i % 2 == 1):
        raise SurgeryError(f"{i} is not a positive odd edge for n={n}")
    # with A(e) = opp(sigma(e)) the crossing equation gives A^2 = opp o tau,
    # so the orbit is {i, A(i), opp(tau(i)), opp(tau(A(i)))}: i, one positive
    # even label j, opp(tau(i)) and opp(tau(j))
    (j,) = [s for s in host.vertex_orbit(i) if s % 2 == 0 and s <= 2 * n]
    return AttachmentSite(i, j)


class AssemblyMap:
    """The relabeling that splices a genus-k piece into a genus-l host, and its
    preimage.

    Both sides are arc moves in `filling`'s label layout (`_arc_table`).
    Each result curve has n = n_h + n_p - 2 arcs (host n_h = 2l-1, piece
    n_p = 2k+2).  The site (i, j) is in result labels, with site arcs
    a = (i+1)/2 and b = j/2; on each curve, with a the curve's site arc, the
    piece's arc c goes to result arc a + c - 1, so its n_p - 2 inner arcs
    form one block right after the site arc, and the host's arc c goes to
    a - (min(a, n_h) - c) mod n_h, filling the rest in order and ending at
    the site arc.  Host orientations are kept and piece orientations reversed.

    When l = 1 the piece's first and last arcs share the site arc, so each of
    i, j, opp(i), opp(j) has two piece preimages: a decorated entry takes the
    one in {4k+3, 4k+4, 8k+7, 8k+8}, an undecorated entry the other.

    The map is plain data, built once: `host` and `piece` give the result
    label of each host and piece label, and `host_pre`, `piece_pre` and
    `decorated_pre` the host, piece and decorated piece label of each result
    label, or 0 where it has none.  All are tuples indexed by label, index 0
    unused.
    """

    def __init__(self, k: int, l: int, i: int, j: int):
        if k < 1 or l < 1:
            raise SurgeryError("both genera must be >= 1")
        self.k, self.l, self.i, self.j = k, l, i, j
        n_host, n_piece = 2 * l - 1, 2 * k + 2
        self.n = n = n_host + n_piece - 2
        if not (i % 2 == 1 and 1 <= i < 2 * n and j % 2 == 0 and 2 <= j <= 2 * n):
            raise SurgeryError(f"({i}, {j}) is not a positive odd/even site for n={n}")
        site_arc = ((i + 1) // 2, j // 2)  # indexed by `even`
        top = [min(a, n_host) for a in site_arc]  # the host arc on each site arc
        self.host = host = _arc_table(
            n_host, n, lambda c, even, neg: (site_arc[even] - (top[even] - c) % n_host, even, neg)
        )
        self.piece = piece = _arc_table(
            n_piece, n, lambda c, even, neg: (site_arc[even] + c - 1, even, not neg)
        )
        self.host_pre = _preimages(host, n, range(1, 4 * n_host + 1))
        # descending, so that on a torus host the first arc wins the site arc
        self.piece_pre = _preimages(piece, n, range(4 * n_piece, 0, -1))
        last_arc = (2 * n_piece - 1, 2 * n_piece, 4 * n_piece - 1, 4 * n_piece)
        self.decorated_pre = _preimages(piece, n, last_arc if l == 1 else ())

    def __repr__(self) -> str:
        return f"AssemblyMap(k={self.k}, l={self.l}, i={self.i}, j={self.j})"


def _no_preimage(amap: AssemblyMap, side: str, symbol: int) -> NoReturn:
    raise CaseGap(f"{amap!r}, {side} side: symbol {symbol} has no preimage")


def _preimages(table: tuple[int, ...], n: int, labels: Iterable[int]) -> tuple[int, ...]:
    """The source label of each of the 4n result labels that `table` sends
    one of `labels` to, 0 for the rest; a later label wins a shared image."""
    pre = [0] * (4 * n + 1)
    for w in labels:
        pre[table[w]] = w
    return tuple(pre)


# A map is immutable, and a round trip pulls back and splices through the
# same few maps again and again: the surgery benchmark's query stream builds
# 75,027 maps in 1,200 passes, 183 of them distinct.
_assembly_map = lru_cache(maxsize=256)(AssemblyMap)


@lru_cache(maxsize=None)
def _reverse_second(n: int) -> Permutation:
    """delta^-1 mu eta mu, which reverses the second curve: even arc p goes to
    arc 1 - p, reversed, and odd labels are fixed.  An involution that fixes
    2n-1 and 2n+1 and swaps 2n and 2n+2, so a green-normalized piece stays so
    and its green crossing turns to the other chirality."""
    return _arc_map(
        n, lambda arc, even, neg: (1 - arc, even, not neg) if even else (arc, even, neg)
    )


def assemble(
    host: FillingPermutation, piece: FillingPermutation, site: AttachmentSite
) -> FillingPermutation:
    """Connected sum of a minimal genus-l host and a genus-k piece at `site`.

    Both crossings are drilled out and both sides are relabeled by
    `AssemblyMap`, so the host's in-arcs fuse with the piece's first arcs and
    its out-arcs with the piece's last arcs.  Every surviving region
    adjacency of either side carries over; the opened corners reconnect
    through the merged arcs.  When the host crossing and the piece's green
    crossing have opposite chirality, the piece is spliced as relabeled by
    `_reverse_second`.
    """
    l = host.genus()
    k = piece.genus()
    if not host.is_minimal():
        raise SurgeryError("host must be minimal")
    if not piece.is_z_piece():
        raise SurgeryError("piece is not an attachable (Z) piece")
    if not piece.green_normalized():
        raise SurgeryError("piece labeling is not green-normalized")
    checked = attachment_site(host, site.i)
    if checked.j != site.j:
        raise SurgeryError(
            f"edge {site.j} is not the positive even edge at the crossing of {site.i}"
        )

    amap = _assembly_map(k, l, site.i, site.j)
    result_size = 4 * amap.n
    orbit = host.vertex_orbit(site.i)
    green = piece.vertex_orbit(2 * piece.n - 1)
    sigma_p = piece.sigma
    # a crossing's chirality: whether its left-edge orbit steps from the odd
    # in-edge straight to the even one; a torus host has none
    if host.n > 1 and (orbit[1] == site.j) != (green[1] == 2 * piece.n):
        sigma_p = sigma_p.conjugated_by(_reverse_second(piece.n))

    hmap, pmap = amap.host, amap.piece
    merged = {hmap[e]: hmap[v] for e, v in enumerate(host.sigma.one_line(), 1) if e not in orbit}
    merged.update(
        {pmap[v]: pmap[u] for u, v in enumerate(sigma_p.one_line(), 1) if u not in green}
    )

    if len(merged) != result_size:
        raise CaseGap(f"splice covered {len(merged)} of {result_size} labels")
    try:
        sigma = Permutation([merged[e] for e in range(1, result_size + 1)])
        result = validate(sigma)
    except ValueError as exc:
        raise CaseGap(f"spliced permutation is not a filling permutation: {exc}") from exc
    if not result.is_minimal() or result.genus() != k + l:
        raise CaseGap("spliced permutation has the wrong region or genus count")
    return result


@dataclass(frozen=True)
class Decomposition:
    """A witness that a minimal genus-g pair splits off a genus-k piece.

    The anchors x, a, y, b are the four edges the separating curve crosses, in
    traversal order; `type` lists the sizes of the four piece regions the
    curve cordons off, aligned with the anchors.  Canonical rotation puts the
    lexicographically greatest type first (ties broken by the smallest leading
    anchor).
    """

    k: int
    l: int
    x: int
    a: int
    y: int
    b: int
    type: tuple[int, int, int, int]

    @property
    def anchors(self) -> tuple[int, int, int, int]:
        return (self.x, self.a, self.y, self.b)

    def to_record(self) -> dict:
        return {**vars(self), "type": list(self.type)}


def _site_labels(anchors: tuple[int, int, int, int], n: int) -> tuple[int, int]:
    """The positive odd and positive even anchors (i, j) of a cut, which has
    one of each: x and a differ in parity, and y = flip[x] and b = flip[a]
    keep it and change sign."""
    (i,) = [sym for sym in anchors if sym <= 2 * n and sym % 2]
    (j,) = [sym for sym in anchors if sym <= 2 * n and not sym % 2]
    return i, j


class _CycleTables:
    """Flat lookup tables for the single region cycle of a minimal pair.

    `cycle` is the region's labels in sigma order and `m` its length.  The
    tables are indexed by label, index 0 unused: `pos[e]` is e's index in
    `cycle` and `opp[e]` the opposite label.  `opp_at` is the opposite of the
    label at each position, twice round, so an anchor window is one slice.
    `genus` is the pair's genus.
    """

    def __init__(self, fp: FillingPermutation):
        if not fp.is_minimal():
            raise SurgeryError("decomposition requires a minimal filling permutation")
        self.genus = fp.genus()
        self.cycle = cycle = fp.regions[0]
        self.m = m = len(cycle)
        pos = [0] * (m + 1)
        for idx, sym in enumerate(cycle):
            pos[sym] = idx
        self.pos = tuple(pos)
        self.opp = opp = _opp_tau(fp.n, 0)
        self.opp_at = tuple(map(opp.__getitem__, cycle)) * 2


@lru_cache(maxsize=1)
def _tables_of(fp: FillingPermutation) -> _CycleTables:
    """The tables of the last pair asked for, so that a query's search and
    the cuts and round trips of its witnesses build them once."""
    return _CycleTables(fp)


def _anchored_types(
    tables: _CycleTables, k: int
) -> Iterator[tuple[tuple[int, int, int, int], tuple[int, int, int, int]]]:
    """Yield (anchors, type) of every genus-k candidate, lazily, by x in cycle
    order and then by r.

    The first region size r forces the rest: a = opp(sigma^(r-1)(x)),
    y = flip[x] and b = flip[a], with flip = opp o tau^(2k+1) by label.
    Each piece region runs from an anchor to the opposite of the next one,
    so reading the type off the anchors makes the four span equations and
    the two tau^(2k+1) equations hold by construction.  What is left is that
    every region size is at least 4 and the sizes sum to 8k + 8.  They are
    all even: labels alternate parity along the cycle, and opp and tau keep
    a label's parity.  These are candidates only; whether they cut off the
    piece (their runs may overlap, or not close under opp) is for
    `_is_witness` to decide.

    With d(e) = pos(opp e) - pos(e), the sizes less one sum to
    d(x) + d(y) + d(a) + d(b) modulo m, that is to D(x) + D(a) with
    D(e) = d(e) + d(flip[e]), and that sum must be 8k + 4.  So a candidate a
    is tested against the residue class 8k + 4 - D(x) first, and s, t and u
    are computed only for the candidates in it.  d is built once per call.

    On a torus remainder (k = g - 1) tau^(2k+1) is the identity, so flip =
    opp, D = 0 and the class holds every candidate.  There (r - 1) + (u - 1)
    = d(x) mod m exactly, so u >= 4 caps r at (d(x) mod m) - 2, and the sizes
    sum to 8k + 8 = m + 4 exactly when pos(a) runs from pos(opp x) forward to
    pos(x); with s, t >= 4 that is the cyclic interval
    [pos(opp x) + 3, pos(x) - 3], one compare per candidate.  That scan
    computes d(x) mod m as it goes, so the census flag, which stops in it,
    never builds d.
    """
    pos, opp, opp_at, m = tables.pos, tables.opp, tables.opp_at, tables.m
    last = 8 * k - 4
    sizes = range(4, last + 1, 2)
    if k == tables.genus - 1:
        for px, x in enumerate(tables.cycle):
            y = opp[x]
            ox = pos[y]
            dx = (ox - px) % m
            # the interval [ox + 3, px - 3] holds span + 1 positions
            span, lo = m - dx - 6, ox + 3
            if span < 0:
                continue
            # a for r = 4, 6, ..., min(last, dx - 2) sits at px + 3, px + 5, ...
            for r, a in zip(sizes, opp_at[px + 3 : px + min(last, dx - 2) : 2]):
                pa = pos[a]
                if (pa - lo) % m <= span:
                    s, t = (px - pa) % m + 1, (pa - ox) % m + 1
                    yield (x, a, y, opp[a]), (r, s, t, dx - r + 2)
        return
    d = [pos[o] - p for p, o in zip(pos, opp)]
    flip = _opp_tau(m // 4, 2 * k + 1)
    residue = [(de + d[f]) % m for de, f in zip(d, flip)]
    # the residue of the candidate a at each cycle position, twice round
    residue_at = list(map(residue.__getitem__, opp_at))
    total = 8 * k + 4
    for x in tables.cycle:
        px = pos[x]
        want = (total - residue[x]) % m
        window = residue_at[px + 3 : px + last : 2]
        if want not in window:
            continue
        y = flip[x]
        py, ox, oy = pos[y], pos[opp[x]], pos[opp[y]]
        for r, a, ra in zip(sizes, opp_at[px + 3 : px + last : 2], window):
            if ra != want:
                continue
            s = (oy - pos[a]) % m + 1
            if s < 4:
                continue
            b = flip[a]
            t = (pos[opp[b]] - py) % m + 1
            if t < 4:
                continue
            u = (ox - pos[b]) % m + 1
            if u < 4 or r + s + t + u != 8 * k + 8:
                continue
            yield (x, a, y, b), (r, s, t, u)


def _cut_at(
    tables: _CycleTables, k: int, anchors: tuple[int, int, int, int]
) -> Decomposition | None:
    """The decomposition of piece genus k with these anchors, in the order
    given, or None: the one check of a caller's (k, anchors), for
    `decomposition_at` and `extract` alike.

    Run c holds (pos(opp(anchor c + 1)) - pos(anchor c)) mod m + 1 labels.
    The anchors are a candidate of `_anchored_types` exactly when y = flip[x],
    b = flip[a], the first size is even (anchors x, a of one parity give odd
    sizes), all are >= 4 and sum to 8k + 8; then `_is_witness` judges it.
    """
    g = tables.genus
    _check_piece_genus(k, g)
    for sym in anchors:
        if not 1 <= sym <= tables.m:
            raise SurgeryError(f"anchor {sym} out of range 1..{tables.m}")
    x, a, y, b = anchors
    pos, opp, m = tables.pos, tables.opp, tables.m
    flip = _opp_tau(m // 4, 2 * k + 1)
    quad = tuple((pos[opp[nxt]] - pos[e]) % m + 1 for e, nxt in zip(anchors, (a, y, b, x)))
    if (y, b) != (flip[x], flip[a]) or quad[0] % 2 or min(quad) < 4 or sum(quad) != 8 * k + 8:
        return None
    dec = Decomposition(k, g - k, *anchors, quad)
    return dec if _is_witness(tables, dec) else None


def decomposition_at(
    fp: FillingPermutation, x: int, a: int, y: int, b: int, k: int
) -> Decomposition | None:
    """The decomposition with anchors x, a, y, b and piece genus k, or None.

    The type is read off the anchors: each piece region runs from an anchor
    to the opposite of the next one.  None means the anchors fail the
    remaining equations or do not cut off the piece, by the same rule as
    `find_decompositions`.
    """
    return _cut_at(_tables_of(fp), k, (x, a, y, b))


def find_decompositions(fp: FillingPermutation, k: int | None = None) -> list[Decomposition]:
    """Exhaustive search for all single-step splittings of a minimal pair.

    The anchors determine the type, so the search runs over piece genus k,
    x and the first region size r only: a = opp(sigma^(r-1)(x)),
    y = opp(tau^(2k+1)(x)) and b = opp(tau^(2k+1)(a)) are forced.  The
    region sizes less one sum to 8k + 4, which fixes D(a) modulo 4n given x;
    on a torus remainder (k = g - 1) the sizes close exactly when pos(a) lies
    in one cyclic interval (see `_anchored_types`).  The search meets each
    rotation of a candidate once and judges only the canonical one by
    `_is_witness`; the witnesses are sorted by (k, type, x).
    """
    if k is not None:
        _check_piece_genus(k, fp.genus())
    tables = _tables_of(fp)
    g = tables.genus
    found = []
    for kk in range(g - 1, 0, -1) if k is None else (k,):
        for anchors, quad in _anchored_types(tables, kk):
            key = (quad, -anchors[0])
            if quad[0] == max(quad) and all(
                key > (quad[r:] + quad[:r], -anchors[r]) for r in (1, 2, 3)
            ):
                dec = Decomposition(kk, g - kk, *anchors, quad)
                if _is_witness(tables, dec):
                    found.append(dec)
    return sorted(found, key=lambda d: (d.k, d.type, d.x))


def _decomposes(fp: FillingPermutation) -> bool:
    """Whether a minimal pair splits at all: the first candidate, in any
    rotation, that is a witness decides.

    Almost every witness of a census class has a torus remainder, so
    k = g - 1 is tried first, and the flag stops in the torus scan before
    any inner scan builds its residue tables.
    """
    tables = _CycleTables(fp)
    g = tables.genus
    for k in range(g - 1, 0, -1):
        for anchors, quad in _anchored_types(tables, k):
            if _is_witness(tables, Decomposition(k, g - k, *anchors, quad)):
                return True
    return False


def _check_piece_genus(k: int, g: int) -> None:
    if not 1 <= k <= g - 1:
        raise SurgeryError(f"piece genus {k} out of range for genus {g}")


def _is_witness(tables: _CycleTables, dec: Decomposition) -> bool:
    """The one rule for a candidate of `_anchored_types`: it is a witness
    exactly when its four runs are pairwise disjoint and their labels are
    closed under opp.

    Run c goes from anchor c to the opposite of anchor c + 1 and holds
    type[c] labels; the runs become the piece's four regions.  When they are
    disjoint the anchor chords neither collide nor cross, so the four caps
    they cut off the region polygon are the four faces on the piece side,
    and the regluing joins the caps to one another through the anchor
    edges.  The curve then cuts off the piece exactly when no cap label is
    glued to a label outside the caps.  Overlapping runs cannot be the four
    regions of a piece.

    On a torus remainder (k = g - 1) y = opp(x) and b = opp(a), so the runs
    from x, b, y and a each end where the next one starts; each holds at
    least 4 labels and together they hold m + 4, so they tile the cycle once
    and every torus candidate is a witness.
    """
    if dec.k == tables.genus - 1:
        return True
    pos, opp_at, m = tables.pos, tables.opp_at, tables.m
    runs = sorted(zip(map(pos.__getitem__, dec.anchors), dec.type))
    # each run ends before the next one starts, the last before the first
    # one's start a lap later
    nexts = [start for start, _ in runs[1:]] + [runs[0][0] + m]
    if any(start + size > nxt for (start, size), nxt in zip(runs, nexts)):
        return False
    inside = {p % m for start, size in runs for p in range(start, start + size)}
    return all(pos[opp_at[p]] in inside for p in inside)


def extract(
    fp: FillingPermutation, dec: Decomposition
) -> tuple[list[list[Entry]], list[int]]:
    """Split sigma into the piece-side cycles and the remainder cycle.

    Returns (cut_cycles, remainder_cycle).  The four cut cycles run from each
    anchor to the opposite of the next anchor and are arranged so the first
    ends at the odd edge not on the positive odd anchor's arc; the rest follow
    in cyclic anchor order, each starting at the opposite of the previous
    last entry.  When the piece takes all but a torus (k = g-1) the anchors
    each serve as both first and last entries, so their extra copies are
    decorated: a positive edge's copy is decorated where it appears as a
    terminal entry, a negative edge's where it appears as an initial entry.
    The remainder cycle is sigma with the cut cycles' interior entries
    deleted; for k = g-1 it is [1, 2, 3, 4].

    Raises `SurgeryError` unless `dec` is exactly what `decomposition_at`
    returns for its k and anchors: the one check `_cut_at` makes, so a
    caller's cut is held to the rule the search uses.
    """
    tables = _tables_of(fp)
    anchors, n = dec.anchors, fp.n
    if _cut_at(tables, dec.k, anchors) != dec:
        raise SurgeryError(
            f"k={dec.k} l={dec.l} anchors {anchors} type {dec.type}"
            f" is no decomposition of this genus-{tables.genus} pair"
        )
    decorated = dec.l == 1

    cycle, pos, m = tables.cycle, tables.pos, tables.m
    runs = [[cycle[p % m] for p in range(pos[e], pos[e] + t)] for e, t in zip(anchors, dec.type)]

    def entries(run: list[int]) -> list[Entry]:
        last = len(run) - 1
        return [(e, decorated and at == (last if e <= 2 * n else 0)) for at, e in enumerate(run)]

    i, _ = _site_labels(anchors, n)
    # two runs end at odd labels: opp(i), and the opposite of the other odd
    # anchor; the first cut cycle ends at the latter, or at opp(i) when the
    # latter is i itself (a torus remainder)
    odd = [c for c in range(4) if runs[c][-1] % 2 and runs[c][-1] != i]
    lead = min(odd, key=lambda c: runs[c][-1] == tables.opp[i])
    # run c ends at opp(anchors[c+1]) and run c+1 starts at anchors[c+1]
    cut_cycles = [entries(runs[(lead + c) % 4]) for c in range(4)]

    if decorated:
        return cut_cycles, [1, 2, 3, 4]
    interior: set[int] = set()
    for run in runs:
        interior.update(run[1:-1])
    surviving = [s for s in cycle if s not in interior]
    at_min = surviving.index(min(surviving))
    return cut_cycles, surviving[at_min:] + surviving[:at_min]


def disassemble(
    fp: FillingPermutation, dec: Decomposition
) -> tuple[FillingPermutation, FillingPermutation]:
    """Recover (piece, remainder) filling permutations from a decomposition.

    The cut cycles and the remainder cycle are pulled back through the
    `AssemblyMap` at the decomposition's site.  Raises `SurgeryError`
    when `dec` is no decomposition of fp, and `CaseGap` when the accepted
    cut pulls back to a piece or remainder of the wrong kind.
    """
    return _pull_back(fp, dec, *extract(fp, dec))


def _pull_back(
    fp: FillingPermutation,
    dec: Decomposition,
    cut_cycles: list[list[Entry]],
    remainder_cycle: list[int],
) -> tuple[FillingPermutation, FillingPermutation]:
    """`disassemble` given what `extract(fp, dec)` returned."""
    k, l = dec.k, dec.l
    amap = _assembly_map(k, l, *_site_labels(dec.anchors, fp.n))
    # a label with no preimage reads 0, and `_no_preimage` raises
    pre = (amap.piece_pre, amap.decorated_pre)
    piece_cycles = [
        [pre[decorated][s] or _no_preimage(amap, "piece", s) for s, decorated in cyc]
        for cyc in cut_cycles
    ]
    if l > 1:  # a torus remainder comes back from `extract` already as [1, 2, 3, 4]
        host_pre = amap.host_pre
        remainder_cycle = [host_pre[v] or _no_preimage(amap, "host", v) for v in remainder_cycle]
    remainder_perm = Permutation.from_cycles([remainder_cycle], 8 * l - 4)
    piece_perm = Permutation.from_cycles(piece_cycles, 8 * k + 8).inverse()
    try:
        piece = validate(piece_perm, 2 * k + 2)
        remainder = validate(remainder_perm, 2 * l - 1)
    except ValueError as exc:
        raise CaseGap(f"recovered piece or remainder is not a filling pair: {exc}") from exc
    if not piece.is_z_piece():
        raise CaseGap("recovered piece is not an attachable piece")
    if piece.z_type() != ZType(dec.type):
        raise CaseGap(
            f"recovered piece type {piece.z_type().quad} does not match {dec.type}"
        )
    if not remainder.is_minimal() or remainder.genus() != l:
        raise CaseGap("recovered remainder is not a minimal pair of the right genus")
    return piece, remainder


@lru_cache(maxsize=None)
def _kappa_delta_inverse(n: int, p: int, q: int) -> Permutation:
    """kappa^(-p) delta^(-q), the arc map moving odd arcs back p places and
    even arcs back q places; built once per (n, p, q)."""
    return _arc_map(n, lambda arc, even, neg: (arc - (q if even else p), even, neg))


@dataclass(frozen=True)
class RoundTripReport:
    """Relabeling powers (p, q) with kappa^p delta^q carrying the reassembled
    permutation back to the original by conjugation.

    The cut's site fixes them.  With (i, j) the positive odd and even anchors
    and a = (i+1)/2, b = j/2 their arcs, the rebuild puts the site on host
    arcs min(a, 2l-1) and min(b, 2l-1), so (p, q) = ((min(a, 2l-1) - a) mod n,
    (min(b, 2l-1) - b) mod n).  That is (0, 0), an exact rebuild, at every
    site `assemble` joins at.
    """

    p: int
    q: int
    reassembled: FillingPermutation

    @property
    def exact(self) -> bool:
        return self.p == 0 and self.q == 0


def round_trip_check(fp: FillingPermutation, dec: Decomposition) -> RoundTripReport:
    """Disassemble, reassemble at the induced site, and check the conjugacy.

    The site is the host preimage (i', j') of the anchors (i, j) under the
    `AssemblyMap` at the cut's site: (1, 2) on a genus-1 remainder.  When it
    differs from (i, j) the result is only conjugate to the original by
    label cycling, with the powers that carry the rebuild's site arcs back
    to the cut's: (p, q) = ((i' - i)/2 mod n, (j' - j)/2 mod n).  For the
    k = 5 witness of sigma_F6 (site (1, 16), n = 11) that is (0, 4).  Raises
    `SurgeryError` when `dec` is no decomposition of fp, as `extract` does.
    Once the cut is accepted, raises `CaseGap` unless t = kappa^p delta^q
    gives t^{-1} * sigma' * t == sigma; t^{-1} = kappa^(-p) delta^(-q) is
    built in closed form, as the arc map moving odd arcs back p places and
    even arcs back q places.
    """
    n = fp.n
    piece, remainder = disassemble(fp, dec)
    i, j = _site_labels(dec.anchors, n)
    amap = _assembly_map(dec.k, dec.l, i, j)
    site = AttachmentSite(amap.host_pre[i], amap.host_pre[j])
    reassembled = assemble(remainder, piece, site)
    p, q = (site.i - i) // 2 % n, (site.j - j) // 2 % n
    back = _kappa_delta_inverse(n, p, q)
    if reassembled.sigma.conjugated_by(back) != fp.sigma:
        raise CaseGap(
            f"kappa^{p} delta^{q} does not carry the rebuild at site ({i}, {j}) to the original"
        )
    return RoundTripReport(p=p, q=q, reassembled=reassembled)
