"""Connected-sum assembly, decomposition detection, extraction, round trips."""

from __future__ import annotations

import gzip
import random
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

from fillperm import (
    AssemblyMap,
    AttachmentSite,
    CaseGap,
    Decomposition,
    Permutation,
    SurgeryError,
    assemble,
    attachment_site,
    decomposition_at,
    disassemble,
    enumerate_filling,
    extract,
    find_decompositions,
    generators,
    read_census,
    round_trip_check,
    tau,
    twist_group,
    validate,
)

from fillperm.surgery import (
    _CycleTables,
    _anchored_types,
    _cut_at,
    _decomposes,
    _is_witness,
    _pull_back,
    _reverse_second,
)
from fillperm.filling import FillingPermutation, ZType, _arc_of, _label_of, _opp_tau

from conftest import (
    SIGMA_PRIME, ChordsCross, identity, opp_shift, opposite, perm, reference_separating,
)
from random_pairs import random_minimal_pair

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
DATA = Path(__file__).resolve().parent / "data"

A_SIGMA_F = "(1,2,25,44,19,18,43,38,17,22,23,40,21,20,39,24,3,16,41,42)"
A_SIGMA_Z_INV = (
    "(2,11,28,25)(39,10,7,34,27,6,13,36,29,12,9,24)"
    "(38,35,8,17)(3,26,31,14,15,30,33,4,5,32,37,16)"
)

# the four split-off cycles for the two worked extractions, decorated entries
# written as (symbol, True)
CUT_F6_K5 = [
    [(38, True), (35, False), (8, False), (17, False), (22, False), (23, False)],
    [(1, False), (2, False), (11, False), (28, False), (25, False), (44, False),
     (19, False), (18, False), (43, False), (38, False)],
    [(16, False), (41, False), (42, False), (1, True)],
    [(23, True), (40, False), (21, False), (20, False), (39, False), (10, False),
     (7, False), (34, False), (27, False), (6, False), (13, False), (36, False),
     (29, False), (12, False), (9, False), (24, False), (3, False), (26, False),
     (31, False), (14, False), (15, False), (30, False), (33, False), (4, False),
     (5, False), (32, False), (37, False), (16, True)],
]
CUT_F3_K2 = [
    [(14, True), (5, False), (10, False), (11, False)],
    [(1, False), (2, False), (13, False), (20, False), (7, False), (6, False),
     (19, False), (14, False)],
    [(4, False), (17, False), (18, False), (1, True)],
    [(11, True), (16, False), (9, False), (8, False), (15, False), (12, False),
     (3, False), (4, True)],
]


def test_attachment_site_sigma_f(sigma_f):
    site = attachment_site(sigma_f, 3)
    assert site == AttachmentSite(3, 2)
    assert set(sigma_f.vertex_orbit(3)) == {3, 14, 15, 2}


def test_attachment_site_f1(f1):
    assert attachment_site(f1, 1) == AttachmentSite(1, 2)


def test_attachment_site_every_odd_edge(sigma_f):
    for i in range(1, 2 * sigma_f.n, 2):
        site = attachment_site(sigma_f, i)
        assert site.j % 2 == 0 and site.j <= 2 * sigma_f.n


def test_attachment_site_rejects_bad_anchor(sigma_f, zeta):
    with pytest.raises(SurgeryError, match="^2 is not a positive odd edge for n=5$"):
        attachment_site(sigma_f, 2)  # even
    with pytest.raises(SurgeryError, match="^13 is not a positive odd edge for n=5$"):
        attachment_site(sigma_f, 13)  # negative
    with pytest.raises(SurgeryError, match=r"^host must be minimal \(a single complementary region\)$"):
        attachment_site(zeta, 1)  # non-minimal host


def test_crossing_orbit_holds_one_positive_even_label():
    # why attachment_site needs no checks beyond its input's: with A(e) =
    # opp(sigma(e)) the crossing equation gives A^2 = opp o tau, so the orbit
    # of a positive odd i is {i, j, opp(tau(i)), opp(tau(j))} for the one
    # positive even label j in it; every valid pair at n <= 5, then the 168
    # genus-4 census representatives
    pairs = [validate(Permutation(one), n)
             for n in range(1, 6) for one in enumerate_filling(n, single_cycle=False)]
    assert len(pairs) == 4282
    pairs += [validate(Permutation(rec.canonical_form), rec.n)
              for rec in read_census(GOLDEN / "census_single_n7.jsonl")]
    sites = minimal = 0
    for fp in pairs:
        n, t = fp.n, tau(fp.n)
        for i in range(1, 2 * n, 2):
            orbit = fp.vertex_orbit(i)
            (j,) = [s for s in orbit if s % 2 == 0 and s <= 2 * n]
            assert set(orbit) == {i, j, opposite(t(i), n), opposite(t(j), n)}, (fp, i)
            sites += 1
            if fp.is_minimal():
                assert attachment_site(fp, i).j == j, (fp, i)
                minimal += 1
    assert (sites, minimal) == (20898 + 168 * 7, 3002 + 168 * 7)


def test_assembly_map_on_host(sigma_f):
    amap = AssemblyMap(3, 3, 3, 2)
    expected = perm(A_SIGMA_F, 44)
    for v in range(1, 21):
        assert expected(amap.host[v]) == amap.host[sigma_f.sigma(v)]


def test_assembly_map_on_piece(sigma_z):
    amap = AssemblyMap(3, 3, 3, 2)
    expected = perm(A_SIGMA_Z_INV, 44)
    inv = sigma_z.sigma.inverse()
    for w in range(1, 33):
        assert expected(amap.piece[w]) == amap.piece[inv(w)]


def test_assembly_map_injective_off_anchor_coincidences():
    for k, l, i, j in [(3, 3, 3, 2), (2, 1, 1, 2), (2, 3, 9, 8), (1, 3, 5, 2)]:
        amap = AssemblyMap(k, l, i, j)
        host_images = set(amap.host[1:])
        piece_images = amap.piece[1:]
        assert len(host_images) == 8 * l - 4
        # total collisions (within piece and against host) is exactly eight
        collisions = len(piece_images) - len(set(piece_images))
        collisions += len(set(piece_images) & host_images)
        assert collisions == 8


def test_assembly_map_matches_assemble_at_every_site(sigma_f, f4, zeta, sigma_z):
    # Site (1, 10) on sigma_f is a wrap-around site (j = 4l-2): the piece's
    # last arcs wrap to the start of the result's curves and keep their
    # reversed orientation there.
    assert AssemblyMap(3, 3, 1, 10).piece[32] == 2
    # at crossings of opposite chirality the map splices the piece relabeled
    # by _reverse_second, which leaves its green labels where they were
    opposite_sites = 0
    for host in (sigma_f, f4):
        for piece in (zeta, sigma_z):
            green = set(piece.vertex_orbit(2 * piece.n - 1))
            piece_turn = piece.vertex_orbit(2 * piece.n - 1)[1] == 2 * piece.n
            for i in range(1, 2 * host.n, 2):
                site = attachment_site(host, i)
                sigma = assemble(host, piece, site).sigma
                amap = AssemblyMap(piece.genus(), host.genus(), site.i, site.j)
                sigma_p = piece.sigma
                if (host.vertex_orbit(i)[1] == site.j) != piece_turn:
                    sigma_p = sigma_p.conjugated_by(_reverse_second(piece.n))
                    opposite_sites += 1
                orbit = set(host.vertex_orbit(i))
                for v in range(1, host.size + 1):
                    if v not in orbit:
                        assert sigma(amap.host[v]) == amap.host[host.sigma(v)], (i, v)
                for w in range(1, piece.size + 1):
                    if w not in green:
                        assert sigma(amap.piece[sigma_p(w)]) == amap.piece[w], (i, w)
    assert opposite_sites == 12


@pytest.mark.parametrize("l", [1, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_assembly_map_preimage_is_inverse(k, l):
    n_host, n_piece = 2 * l - 1, 2 * k + 2
    n = n_host + n_piece - 2
    last_arc = {2 * n_piece - 1, 2 * n_piece, 4 * n_piece - 1, 4 * n_piece}
    for i in range(1, 2 * n, 2):
        for j in range(2, 2 * n + 1, 2):
            amap = AssemblyMap(k, l, i, j)
            host_images = set()
            for v in range(1, 4 * n_host + 1):
                r = amap.host[v]
                assert amap.host_pre[r] == v
                host_images.add(r)
            piece_images = set()
            for w in range(1, 4 * n_piece + 1):
                r = amap.piece[w]
                decorated = l == 1 and w in last_arc
                assert (amap.decorated_pre if decorated else amap.piece_pre)[r] == w
                piece_images.add(r)
            assert host_images | piece_images == set(range(1, 4 * n + 1))
            for r in range(1, 4 * n + 1):
                if r in host_images:
                    assert amap.host[amap.host_pre[r]] == r
                if r in piece_images:
                    assert amap.piece[amap.piece_pre[r]] == r
                    if l == 1 and r in (i, j, opposite(i, n), opposite(j, n)):
                        assert amap.piece[amap.decorated_pre[r]] == r


def _arc_arithmetic(k, l, i, j):
    """AssemblyMap's relabeling as arc arithmetic, one label at a time: the
    reference its tables are checked against.  Returns host(v), piece(w),
    host_preimage(r) and piece_preimage(r, decorated), the last two 0 where
    r has no preimage."""
    n_host, n_piece = 2 * l - 1, 2 * k + 2
    n = n_host + n_piece - 2
    site_arc = ((i + 1) // 2, j // 2)  # indexed by `even`

    def host(v):
        arc, even, negative = _arc_of(v, n_host)
        a = site_arc[even]
        back = (min(a, n_host) - arc) % n_host
        return _label_of((a - back - 1) % n + 1, even, negative, n)

    def piece(w):
        arc, even, negative = _arc_of(w, n_piece)
        return _label_of((site_arc[even] + arc - 2) % n + 1, even, not negative, n)

    def host_preimage(r):
        c, even, negative = _arc_of(r, n)
        a = site_arc[even]
        back = (a - c) % n
        if back >= n_host:
            return 0
        return _label_of((min(a, n_host) - back - 1) % n_host + 1, even, negative, n_host)

    def piece_preimage(r, decorated):
        c, even, negative = _arc_of(r, n)
        ahead = (c - site_arc[even]) % n
        if ahead >= n_piece or decorated and (l > 1 or ahead):
            return 0
        return _label_of(n_piece if decorated else ahead + 1, even, not negative, n_piece)

    return host, piece, host_preimage, piece_preimage


@pytest.mark.parametrize("l", [1, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_assembly_map_matches_arc_arithmetic(k, l):
    # every label, both directions, decorated and undecorated, at every site
    n_host, n_piece = 2 * l - 1, 2 * k + 2
    n = n_host + n_piece - 2
    for i in range(1, 2 * n, 2):
        for j in range(2, 2 * n + 1, 2):
            amap = AssemblyMap(k, l, i, j)
            host, piece, host_preimage, piece_preimage = _arc_arithmetic(k, l, i, j)
            assert amap.host == (0, *map(host, range(1, 4 * n_host + 1))), amap
            assert amap.piece == (0, *map(piece, range(1, 4 * n_piece + 1))), amap
            results = range(1, 4 * n + 1)
            assert amap.host_pre == (0, *map(host_preimage, results)), amap
            for decorated, table in [(False, amap.piece_pre), (True, amap.decorated_pre)]:
                want = (0, *(piece_preimage(r, decorated) for r in results))
                assert table == want, (amap, decorated)


def test_reverse_second_is_the_involution_that_turns_a_piece_over(zeta, sigma_z, z5):
    # delta^-1 mu eta mu reverses the second curve; it moves neither the
    # green labels nor green normalization, and it turns the green crossing
    for n in (4, 6, 8, 12):
        _, delta, eta, mu = generators(n)
        r = _reverse_second(n)
        assert r == delta.inverse() * mu * eta * mu
        assert r * r == Permutation(range(1, 4 * n + 1))
        assert r in twist_group(n)
        green = range(2 * n - 1, 2 * n + 3)
        assert [r(e) for e in green] == [2 * n - 1, 2 * n + 2, 2 * n + 1, 2 * n]
    pieces = [validate(perm(line, 24))
              for line in (DATA / "genus2_pieces.txt").read_text().splitlines()]
    for piece in [*pieces, zeta, sigma_z, z5]:
        n = piece.n
        turned = validate(piece.sigma.conjugated_by(_reverse_second(n)))
        assert turned.green_normalized() and turned.is_z_piece()
        assert turned.z_type() == piece.z_type()
        assert set(turned.vertex_orbit(2 * n - 1)) == set(piece.vertex_orbit(2 * n - 1))
        turns = [fp.vertex_orbit(2 * n - 1)[1] == 2 * n for fp in (piece, turned)]
        assert turns[0] != turns[1]


def test_arrange_piece_cycles_sigma_z(sigma_z):
    cycles = sigma_z.sigma.inverse().cycles()
    amap = AssemblyMap(3, 3, 3, 2)
    relabeled = ["(" + ",".join(str(amap.piece[w]) for w in c) + ")" for c in cycles]
    assert perm("".join(relabeled), 44) == perm(A_SIGMA_Z_INV, 44)


def test_arrange_piece_cycles_needs_normalization(sigma_f, zeta):
    # assembly needs the piece's green-normalized labeling
    kappa = generators(6)[0]
    moved = validate(zeta.sigma.conjugated_by(kappa), 6)
    with pytest.raises(SurgeryError, match="^piece labeling is not green-normalized$"):
        assemble(sigma_f, moved, AttachmentSite(3, 2))


def test_assemble_worked_example(sigma_f, sigma_z, sigma_f6):
    result = assemble(sigma_f, sigma_z, AttachmentSite(3, 2))
    assert result.sigma == sigma_f6.sigma


def test_assemble_torus_host(f1, zeta):
    result = assemble(f1, zeta, AttachmentSite(1, 2))
    assert result.is_minimal()
    assert result.genus() == 3


def test_assemble_genus_adds(sigma_f, zeta, sigma_z):
    for piece, k in ((zeta, 2), (sigma_z, 3)):
        for i in (1, 5, 9):
            site = attachment_site(sigma_f, i)
            result = assemble(sigma_f, piece, site)
            assert result.genus() == 3 + k
            assert result.is_minimal()


def test_assemble_rejects_bad_piece(sigma_f, f1):
    with pytest.raises(SurgeryError):
        assemble(sigma_f, f1, AttachmentSite(3, 2))


def test_assemble_rejects_a_non_minimal_host_at_an_explicit_site(zeta):
    with pytest.raises(SurgeryError, match="^host must be minimal$"):
        assemble(zeta, zeta, AttachmentSite(1, 2))


def test_assembly_map_rejects_bad_genera_and_sites():
    with pytest.raises(SurgeryError, match="^both genera must be >= 1$"):
        AssemblyMap(0, 1, 1, 2)
    # k = l = 1 gives n = 3: the site needs odd i in 1..5 and even j in 2..6
    for i, j in ((2, 2), (7, 2), (1, 1), (1, 8)):
        with pytest.raises(SurgeryError, match=rf"^\({i}, {j}\) is not a positive odd/even site for n=3$"):
            AssemblyMap(1, 1, i, j)


def test_no_genus_one_piece_exists():
    # a genus-1 Z piece would have n = 4 and four regions, each of at least
    # 4 labels, and a crossing that touches all four; of the 384 pairs at
    # n = 4, the 176 of genus 1 have four regions, but none has such a crossing
    pairs = [validate(Permutation(one), 4) for one in enumerate_filling(4, single_cycle=False)]
    assert len(pairs) == 384
    genus_one = [fp for fp in pairs if fp.genus() == 1]
    assert len(genus_one) == 176 and {fp.region_count for fp in genus_one} == {4}
    assert not any(fp.green_vertices for fp in genus_one)
    assert not any(fp.is_z_piece() for fp in pairs)
    # so no census class cuts off a genus-1 piece: the genus-3
    # representatives give no genus-1 candidate, and the 8 of the genus-4
    # representatives are not witnesses
    found = {}
    for name in ("census_single_n5.jsonl", "census_single_n7.jsonl"):
        candidates = 0
        for rec in read_census(GOLDEN / name):
            fp = validate(Permutation(rec.canonical_form), rec.n)
            tables = _CycleTables(fp)
            for anchors, quad in _anchored_types(tables, 1):
                assert not _is_witness(tables, Decomposition(1, fp.genus() - 1, *anchors, quad))
                candidates += 1
            assert find_decompositions(fp, k=1) == []
        found[name] = candidates
    assert found == {"census_single_n5.jsonl": 0, "census_single_n7.jsonl": 8}


def test_assemble_wraparound_site(sigma_f, zeta):
    # last positive odd/even edges of the host exercise the label wraparound
    i = 4 * 3 - 3
    site = attachment_site(sigma_f, i)
    result = assemble(sigma_f, zeta, site)
    assert result.genus() == 5 and result.is_minimal()


def test_genus2_sums_match_their_pin(f1):
    # the 56 bigon-free green-normalized genus-2 pieces, summed with the 5
    # genus-3 census classes at each of their 5 sites and with the torus:
    # line "host site piece sum", hosts in golden order and the torus last
    hosts = [validate(Permutation(rec.canonical_form), rec.n)
             for rec in read_census(GOLDEN / "census_single_n5.jsonl")]
    pieces = [validate(perm(line, 24))
              for line in (DATA / "genus2_pieces.txt").read_text().splitlines()]
    assert len(pieces) == 56
    lines, opposite_chirality = [], 0
    for h, host in enumerate([*hosts, f1]):
        for i in range(1, 2 * host.n, 2):
            site = attachment_site(host, i)
            host_turn = host.vertex_orbit(i)[1] == site.j
            for p, piece in enumerate(pieces):
                sigma = assemble(host, piece, site).sigma
                lines.append(f"{h} {i} {p} {sigma.cycle_string()}\n")
                # a crossing's left-edge orbit steps from the odd in-edge
                # straight to the even one, or the other way round
                piece_turn = piece.vertex_orbit(2 * piece.n - 1)[1] == 2 * piece.n
                opposite_chirality += host.n > 1 and host_turn != piece_turn
    assert len(lines) == 1456 and opposite_chirality == 700
    pinned = gzip.decompress((DATA / "genus2_sums.txt.gz").read_bytes())
    assert "".join(lines).encode() == pinned


def test_decomposition_at_worked_values(sigma_f6, sigma_f):
    assert decomposition_at(sigma_f6, 3, 38, 39, 2, 3).type == (12, 4, 12, 4)
    assert decomposition_at(sigma_f6, 23, 38, 1, 16, 5).type == (28, 6, 10, 4)
    assert decomposition_at(sigma_f, 1, 4, 11, 14, 2).type == (8, 4, 8, 4)


def test_decomposition_at_bad_input(sigma_f6):
    with pytest.raises(SurgeryError, match="piece genus 9 out of range for genus 6"):
        decomposition_at(sigma_f6, 3, 38, 39, 2, 9)
    with pytest.raises(SurgeryError, match="piece genus 0 out of range"):
        decomposition_at(sigma_f6, 3, 38, 39, 2, 0)
    # anchors outside 1..4n
    with pytest.raises(SurgeryError, match="anchor 99 out of range"):
        decomposition_at(sigma_f6, 99, 38, 39, 2, 3)
    with pytest.raises(SurgeryError, match="anchor 0 out of range"):
        decomposition_at(sigma_f6, 3, 38, 39, 0, 3)


def test_find_decompositions_f6(sigma_f6):
    decs = find_decompositions(sigma_f6)
    assert Decomposition(k=3, l=3, x=3, a=38, y=39, b=2, type=(12, 4, 12, 4)) in decs
    assert Decomposition(k=5, l=1, x=23, a=38, y=1, b=16, type=(28, 6, 10, 4)) in decs


def test_find_decompositions_f3(sigma_f):
    decs = find_decompositions(sigma_f)
    assert Decomposition(k=2, l=1, x=1, a=4, y=11, b=14, type=(8, 4, 8, 4)) in decs


def test_find_decompositions_f1_empty(f1):
    assert find_decompositions(f1) == []


def test_find_decompositions_rejects_non_minimal_torus():
    # a three-region pair at n = 3 has genus 1; like every other non-minimal
    # pair it is an input error, not a pair without decompositions
    pairs = (validate(Permutation(p), 3) for p in enumerate_filling(3, single_cycle=False))
    torus = next(fp for fp in pairs if fp.region_count == 3)
    assert torus.genus() == 1
    for search in (find_decompositions, _decomposes):
        with pytest.raises(SurgeryError, match="requires a minimal filling permutation"):
            search(torus)


def test_find_decompositions_k_filter(sigma_f6):
    only_k3 = find_decompositions(sigma_f6, k=3)
    assert all(d.k == 3 for d in only_k3)
    assert len(only_k3) == 1


def _reference_nesting(pos, cycle, anchors, quad):
    # no anchor span may start inside another unless it nests strictly within it
    m = len(cycle)
    pairs = list(zip(anchors, quad))
    for v, p in pairs:
        for w, q in pairs:
            if w == v:
                continue
            if (pos[w] - pos[v]) % m < p - 1:
                end_of_v = cycle[(pos[v] + p - 1) % m]
                if not (pos[end_of_v] - pos[w]) % m > q - 1:
                    return False
    return True


def _reference_decompositions(fp):
    # Shares no code with the anchor-derived search: every even type summing
    # to 8k+8, every x, the six equations written out on a position
    # dictionary, then its own non-nesting and separating-curve checks and
    # the canonical rotation.
    g, n = fp.genus(), fp.n
    cycle = fp.regions[0]
    pos = {sym: idx for idx, sym in enumerate(cycle)}

    def power(e, m):  # sigma^m(e) on the single region cycle
        return cycle[(pos[e] + m) % len(cycle)]

    found = set()
    for k in range(1, g):
        t_power = tau(n) ** (2 * k + 1)
        flip = {e: opposite(t_power(e), n) for e in cycle}
        total = 8 * k + 8
        for r in range(4, total, 2):
            for s in range(4, total - r, 2):
                for t in range(4, total - r - s, 2):
                    u = total - r - s - t
                    if u < 4:
                        continue
                    quad = (r, s, t, u)
                    for x in cycle:
                        a = opposite(power(x, r - 1), n)
                        y = opposite(power(a, s - 1), n)
                        if flip[x] != y:
                            continue
                        b = opposite(power(y, t - 1), n)
                        if not (opposite(power(b, u - 1), n) == x and flip[a] == b):
                            continue
                        anchors = (x, a, y, b)
                        if k < g - 1 and not _reference_nesting(pos, cycle, anchors, quad):
                            continue
                        rotations = [
                            (quad[i:] + quad[:i], -anchors[i], anchors[i:] + anchors[:i])
                            for i in range(4)
                        ]
                        rq, _, (rx, ra, ry, rb) = max(rotations)
                        found.add(Decomposition(k, g - k, rx, ra, ry, rb, rq))
    results = [d for d in found if reference_separating(fp, d)]
    return sorted(results, key=lambda d: (d.k, d.type, d.x))


@pytest.fixture(scope="module")
def reference_pairs(sigma_f6, sigma_f, f4, zeta, sigma_z):
    # the fixtures, sigma_f and F4 # zeta at every site (genus 5 and 6), and
    # the five genus-3 census representatives # sigma_z at every site (genus 6)
    pairs = [sigma_f6, sigma_f, f4]
    for host in (sigma_f, f4):
        for i in range(1, 2 * host.n, 2):
            pairs.append(assemble(host, zeta, attachment_site(host, i)))
    for rec in read_census(GOLDEN / "census_single_n5.jsonl"):
        host = validate(Permutation(rec.canonical_form), rec.n)
        for i in range(1, 2 * host.n, 2):
            pairs.append(assemble(host, sigma_z, attachment_site(host, i)))
    return pairs


def test_find_decompositions_matches_reference(reference_pairs):
    for fp in reference_pairs:
        assert find_decompositions(fp) == _reference_decompositions(fp)


def _flip_by_label(m, k):
    # opp o tau^(2k+1), one label at a time
    two_n, shift = m // 2, 4 * k + 2
    up = (two_n + (e - 1 + shift) % two_n + 1 for e in range(1, two_n + 1))
    down = ((e - 1 - shift) % two_n + 1 for e in range(two_n + 1, 2 * two_n + 1))
    return (0, *up, *down)


def _opos(tables):
    # pos(opp(e)) by label, index 0 unused
    return [tables.pos[tables.opp[e]] for e in range(tables.m + 1)]


def _window_scan(tables, k):
    # the anchor search without the residue filter: every r in the window
    # gets all three remaining sizes computed, each tested for parity too
    cycle, pos, opp, opos, m = tables.cycle, tables.pos, tables.opp, _opos(tables), tables.m
    flip = _flip_by_label(m, k)
    found = []
    for x in cycle:
        y = flip[x]
        px, py, ox, oy = pos[x], pos[y], opos[x], opos[y]
        for r in range(4, 8 * k - 3, 2):
            a = opp[cycle[(px + r - 1) % m]]
            s = (oy - pos[a]) % m + 1
            if s & 1 or s < 4:
                continue
            b = flip[a]
            t = (opos[b] - py) % m + 1
            if t & 1 or t < 4:
                continue
            u = (ox - pos[b]) % m + 1
            if u & 1 or u < 4 or r + s + t + u != 8 * k + 8:
                continue
            found.append(((x, a, y, b), (r, s, t, u)))
    return found


@pytest.fixture(scope="module")
def oracle_pairs(reference_pairs, f4, sigma_z, sigma_f6, zeta):
    # reference_pairs stops at genus 6; F4 # sigma_Z (genus 7) and
    # sigma_F6 # zeta (genus 8) at every site go up to the surgery stream's top
    pairs = list(reference_pairs)
    for host, piece in ((f4, sigma_z), (sigma_f6, zeta)):
        for i in range(1, 2 * host.n, 2):
            pairs.append(assemble(host, piece, attachment_site(host, i)))
    assert {fp.genus() for fp in pairs} == {3, 4, 5, 6, 7, 8}
    return pairs


def test_anchored_types_matches_window_scan(oracle_pairs):
    # list for list and in order, for every k, over every start anchor
    for fp in oracle_pairs:
        tables = _CycleTables(fp)
        for k in range(1, fp.genus()):
            assert _opp_tau(fp.n, 2 * k + 1) == _flip_by_label(tables.m, k)
            assert list(_anchored_types(tables, k)) == _window_scan(tables, k)


def _canonical(k, g, anchors, quad):
    # the rotation find_decompositions reports: greatest type first, ties to
    # the smallest leading anchor
    rq, _, rotated = max(
        (quad[i:] + quad[:i], -anchors[i], anchors[i:] + anchors[:i]) for i in range(4)
    )
    return Decomposition(k, g - k, *rotated, rq)


def test_decomposition_at_agrees_with_find_decompositions(oracle_pairs):
    # one rule at both entry points: every candidate of the anchor search is
    # a witness at its own anchors exactly when the search reports its
    # canonical rotation
    for fp in oracle_pairs:
        g = fp.genus()
        tables = _CycleTables(fp)
        found = set(find_decompositions(fp))
        for k in range(1, g):
            for anchors, quad in _anchored_types(tables, k):
                dec = decomposition_at(fp, *anchors, k)
                assert (dec is not None) == (_canonical(k, g, anchors, quad) in found), (
                    fp, k, anchors)
                if dec is not None:
                    assert (dec.anchors, dec.type) == (anchors, quad)


def _scan_cut_at(scans, tables, k, anchors):
    # the cut check as a scan: the candidates of one full anchor search per
    # (pair, k), kept in `scans`, looked up for the anchors and judged by the
    # witness rule
    if (tables, k) not in scans:
        scans[tables, k] = dict(_anchored_types(tables, k))
    quad = scans[tables, k].get(anchors)
    if quad is None:
        return None
    dec = Decomposition(k, tables.genus - k, *anchors, quad)
    return dec if _is_witness(tables, dec) else None


def test_cut_at_matches_anchor_scan(sigma_f, sigma_f6, f4):
    # every k and every (x, a), with y and b forced and with each of them
    # moved one label on
    pairs = [sigma_f, sigma_f6, f4] + [
        validate(Permutation(rec.canonical_form), rec.n)
        for rec in read_census(GOLDEN / "census_single_n5.jsonl")
    ]
    witnesses, scans = 0, {}
    for fp in pairs:
        tables = _CycleTables(fp)
        m = tables.m
        for k in range(1, tables.genus):
            flip = _opp_tau(fp.n, 2 * k + 1)
            for x in range(1, m + 1):
                for a in range(1, m + 1):
                    y, b = flip[x], flip[a]
                    for anchors in ((x, a, y, b), (x, a, y % m + 1, b), (x, a, y, b % m + 1)):
                        dec = _cut_at(tables, k, anchors)
                        assert dec == _scan_cut_at(scans, tables, k, anchors), (fp, k, anchors)
                        witnesses += dec is not None
    assert witnesses == 200


def test_cut_at_refuses_anchors_of_one_parity(sigma_f6):
    # x and a of one parity read off odd sizes that pass every other test:
    # they sum to 8k + 8 = 48, and at k = g - 1 every candidate would be a
    # (torus) witness
    tables = _CycleTables(sigma_f6)
    anchors = (1, 3, 23, 25)
    assert _opp_tau(sigma_f6.n, 11)[1] == 23 and _opp_tau(sigma_f6.n, 11)[3] == 25
    pos, opos, m = tables.pos, _opos(tables), tables.m
    sizes = [(opos[nxt] - pos[e]) % m + 1 for e, nxt in zip(anchors, (3, 23, 25, 1))]
    assert sizes == [5, 15, 17, 11]
    assert decomposition_at(sigma_f6, *anchors, 5) is None
    assert _scan_cut_at({}, tables, 5, anchors) is None


def _oracle_separates(fp, dec):
    try:
        return reference_separating(fp, dec)
    except ChordsCross:
        return False


def _witness_class(tables, k, g, anchors, quad):
    # the outcome a candidate should have, read off its runs as position sets
    if k == g - 1:
        return "torus"
    pos, opos, m = tables.pos, _opos(tables), tables.m
    runs = [{(pos[e] + i) % m for i in range(size)} for e, size in zip(anchors, quad)]
    inside = set().union(*runs)
    if len(inside) < sum(quad):
        return "overlap"
    labels = [e for e in tables.cycle if pos[e] in inside]
    return "witness" if all(opos[e] in inside for e in labels) else "not closed"


def test_is_witness_matches_geometric_oracle(oracle_pairs, sigma_f6, zeta_prime):
    # every candidate of the anchor search, at every k: the run rule answers
    # as the oracle does, and all four kinds of candidate occur; sigma_F6 #
    # zeta' at site 5 is the pair with runs that are disjoint but not closed
    pairs = [validate(Permutation(rec.canonical_form), rec.n)
             for name in ("census_single_n5.jsonl", "census_single_n7.jsonl")
             for rec in read_census(GOLDEN / name)]
    pairs += [assemble(sigma_f6, zeta_prime, attachment_site(sigma_f6, i))
              for i in range(1, 2 * sigma_f6.n, 2)]
    classes = Counter()
    for fp in oracle_pairs + pairs:
        g = fp.genus()
        tables = _CycleTables(fp)
        for k in range(1, g):
            for anchors, quad in _anchored_types(tables, k):
                dec = Decomposition(k, g - k, *anchors, quad)
                kind = _witness_class(tables, k, g, anchors, quad)
                assert _is_witness(tables, dec) == _oracle_separates(fp, dec) == (
                    kind in ("torus", "witness")), (fp, dec, kind)
                classes[kind] += 1
    assert set(classes) == {"torus", "witness", "overlap", "not closed"}, classes


@pytest.fixture(scope="module")
def random_pairs():
    # 18 seeded minimal pairs at each genus 6 to 16: inner-scan inputs above
    # genus 5 that are not assembled sums
    rng = random.Random(31)
    pairs = [random_minimal_pair(n, rng) for n in range(11, 32, 2) for _ in range(18)]
    assert len({fp.sigma for fp in pairs}) == len(pairs) == 198
    return pairs


def test_anchored_types_matches_window_scan_on_random_pairs(random_pairs):
    for fp in random_pairs:
        tables = _CycleTables(fp)
        for k in range(1, fp.genus()):
            assert list(_anchored_types(tables, k)) == _window_scan(tables, k), (fp, k)


def test_cut_at_and_is_witness_match_geometric_oracle_on_random_pairs(random_pairs):
    # every inner candidate and every 100th torus one (each torus candidate
    # is a witness by the tiling argument): both entry points answer as the
    # oracle does
    kinds = Counter()
    for fp in random_pairs:
        g = fp.genus()
        tables = _CycleTables(fp)
        for k in range(1, g):
            candidates = _anchored_types(tables, k)
            if k == g - 1:
                candidates = islice(candidates, 0, None, 100)
            for anchors, quad in candidates:
                dec = Decomposition(k, g - k, *anchors, quad)
                separates = _oracle_separates(fp, dec)
                assert _is_witness(tables, dec) == separates, (fp, dec)
                assert _cut_at(tables, k, anchors) == (dec if separates else None), (fp, dec)
                kinds[_witness_class(tables, k, g, anchors, quad)] += 1
    assert set(kinds) == {"torus", "witness", "overlap", "not closed"}, kinds


def test_is_witness_rejects_overlapping_runs_that_close(sigma_f6, sigma_f):
    # no candidate seen so far has overlapping runs that are closed under
    # opp, so only this crafted input separates the two halves of the rule:
    # the runs of a torus witness share their ends and cover the whole
    # cycle, and read as an inner candidate they overlap
    for fp in (sigma_f6, sigma_f):
        g = fp.genus()
        tables = _CycleTables(fp)
        anchors, quad = next(_anchored_types(tables, g - 1))
        assert _is_witness(tables, Decomposition(g - 1, 1, *anchors, quad))
        assert not _is_witness(tables, Decomposition(g - 2, 2, *anchors, quad))


@pytest.fixture(scope="module")
def census_reps():
    # the 5 genus-3 and 168 genus-4 census representatives
    pairs = [validate(Permutation(rec.canonical_form), rec.n)
             for name in ("census_single_n5.jsonl", "census_single_n7.jsonl")
             for rec in read_census(GOLDEN / name)]
    assert len(pairs) == 5 + 168
    return pairs


@pytest.fixture(scope="module")
def flag_pairs(census_reps, oracle_pairs):
    # the census representatives, then the oracle pairs (genus 3 to 8)
    return census_reps + oracle_pairs


def test_cycle_tables_match_their_definitions(census_reps):
    for fp in census_reps:
        tables = _CycleTables(fp)
        n, cycle, pos, opp, m = fp.n, tables.cycle, tables.pos, tables.opp, tables.m
        assert (tables.genus, m) == (fp.genus(), 4 * n)
        assert [pos[e] for e in cycle] == list(range(m))
        assert opp == (0, *(opposite(e, n) for e in range(1, m + 1)))
        assert tables.opp_at == tuple(opp[cycle[p % m]] for p in range(2 * m))


def test_decomposable_flag_never_enters_an_inner_scan(census_reps, monkeypatch):
    # every census class has a torus witness, and the torus scan asks for no
    # flip: only the opposite map (shift 0) that the tables are built with
    shifts = []

    def recorded(n, s):
        shifts.append(s)
        return _opp_tau(n, s)

    monkeypatch.setattr("fillperm.surgery._opp_tau", recorded)
    for fp in census_reps:
        shifts.clear()
        assert _decomposes(fp)
        assert shifts == [0], fp


def test_first_witness_matches_full_search(flag_pairs, f1):
    # the census flag stops at the first witness; it must say what the full
    # list says
    for fp in [*flag_pairs, f1]:
        assert _decomposes(fp) == bool(find_decompositions(fp)), fp
    assert not _decomposes(f1)


def test_first_witness_stops_at_first_hit(flag_pairs, monkeypatch):
    checked = []

    def accept(tables, dec):
        checked.append(dec)
        return True

    monkeypatch.setattr("fillperm.surgery._is_witness", accept)
    for fp in flag_pairs:
        checked.clear()
        assert _decomposes(fp)
        assert len(checked) == 1, fp


def test_first_witness_without_hit_checks_what_full_search_checks(flag_pairs, monkeypatch):
    # with no witness at all the flag judges every candidate of the anchor
    # search once, in every rotation, the torus remainder first;
    # find_decompositions judges exactly the canonical rotation of each
    checked = []

    def reject(tables, dec):
        checked.append(dec)
        return False

    monkeypatch.setattr("fillperm.surgery._is_witness", reject)
    for fp in flag_pairs:
        g = fp.genus()
        tables = _CycleTables(fp)
        candidates = [Decomposition(k, g - k, *anchors, quad)
                      for k in range(g - 1, 0, -1)
                      for anchors, quad in _anchored_types(tables, k)]
        canonical = {_canonical(d.k, g, d.anchors, d.type) for d in candidates}
        assert candidates and len(set(candidates)) == len(candidates) == 4 * len(canonical), fp
        assert candidates[0].k == g - 1
        checked.clear()
        assert not _decomposes(fp)
        assert checked == candidates, fp
        checked.clear()
        assert find_decompositions(fp) == []
        assert len(checked) == len(canonical) and set(checked) == canonical, fp


def test_separation_rejects_every_nesting_failure(oracle_pairs):
    # why no separate non-nesting test is needed: every candidate below the
    # torus case whose spans nest wrongly has colliding or crossing chords,
    # which the witness rule rejects, and every other one gets a yes-or-no
    # answer from the geometric oracle
    answers = Counter()
    for fp in oracle_pairs:
        g = fp.genus()
        cycle = fp.regions[0]
        pos = {sym: idx for idx, sym in enumerate(cycle)}
        tables = _CycleTables(fp)
        for k in range(1, g - 1):
            for anchors, quad in _anchored_types(tables, k):
                dec = Decomposition(k, g - k, *anchors, quad)
                if _reference_nesting(pos, cycle, anchors, quad):
                    answer = reference_separating(fp, dec)
                    assert isinstance(answer, bool), (fp, dec)
                    answers[answer] += 1
                else:
                    with pytest.raises(ChordsCross):
                        reference_separating(fp, dec)
                    assert not _is_witness(tables, dec), (fp, dec)
                    answers["ChordsCross"] += 1
    assert set(answers) == {True, False, "ChordsCross"}


def test_region_sizes_are_even(oracle_pairs):
    # labels alternate parity along the cycle, and opp and tau keep a
    # label's parity, so the anchor search needs no parity test: from a to
    # opp(y), from y to opp(b) and from b to opp(x) is an even size
    for fp in oracle_pairs:
        n, g = fp.n, fp.genus()
        tables = _CycleTables(fp)
        cycle, pos, opp, opos, m = tables.cycle, tables.pos, tables.opp, _opos(tables), tables.m
        assert all((cycle[i] - cycle[i - 1]) % 2 == 1 for i in range(m))
        t = tau(n)
        assert all(opposite(e, n) % 2 == t(e) % 2 == e % 2 for e in range(1, m + 1))
        for k in range(1, g):
            flip = _opp_tau(n, 2 * k + 1)
            for x in cycle:
                for r in range(4, 8 * k - 3, 2):
                    a = opp[cycle[(pos[x] + r - 1) % m]]
                    for start, end in ((a, flip[x]), (flip[x], flip[a]), (flip[a], x)):
                        assert (opos[end] - pos[start]) % m % 2 == 1, (fp, k, x, r)


def test_residue_identity(sigma_f6, zeta):
    # (r-1) + (s-1) + (t-1) + (u-1) = D(x) + D(a) mod 4n with
    # D(e) = d(e) + d(flip e), d(e) = pos[opp[e]] - pos[e], for every window r;
    # on a torus remainder flip = opp, so D = 0 and (r-1) + (u-1) = d(x)
    pairs = [validate(Permutation(rec.canonical_form), rec.n)
             for rec in read_census(GOLDEN / "census_single_n7.jsonl")]
    assert len(pairs) == 168
    pairs += [assemble(sigma_f6, zeta, attachment_site(sigma_f6, i)) for i in range(1, 22, 2)]
    checked = 0
    for fp in pairs:
        g = fp.genus()
        tables = _CycleTables(fp)
        cycle, pos, opp, opos, m = tables.cycle, tables.pos, tables.opp, _opos(tables), tables.m
        d = [opos[e] - pos[e] for e in range(m + 1)]
        for k in range(1, g):
            flip = _opp_tau(fp.n, 2 * k + 1)
            D = [d[e] + d[flip[e]] for e in range(m + 1)]
            for x in cycle:
                y, px = flip[x], pos[x]
                for r in range(4, 8 * k - 3, 2):
                    a = opp[cycle[(px + r - 1) % m]]
                    b = flip[a]
                    s = (opos[y] - pos[a]) % m + 1
                    t = (opos[b] - pos[y]) % m + 1
                    u = (opos[x] - pos[b]) % m + 1
                    assert ((r - 1) + (s - 1) + (t - 1) + (u - 1) - D[x] - D[a]) % m == 0
                    if k == g - 1:
                        assert D[x] % m == D[a] % m == 0
                        assert ((r - 1) + (u - 1) - d[x]) % m == 0
                    checked += 1
    assert checked > 100_000


def test_no_genus_two_remainder(sigma_f6, sigma_f, f4):
    for fp in (sigma_f6, sigma_f, f4):
        assert all(d.l != 2 for d in find_decompositions(fp))


def test_decomposition_soundness(sigma_f6, sigma_f):
    for fp in (sigma_f6, sigma_f):
        for dec in find_decompositions(fp):
            assert decomposition_at(fp, *dec.anchors, dec.k) == dec
            assert reference_separating(fp, dec)
            piece, remainder = disassemble(fp, dec)
            assert piece.is_z_piece() and piece.genus() == dec.k
            assert piece.z_type() == ZType(dec.type)
            assert remainder.is_minimal() and remainder.genus() == dec.l


def test_anchor_involution_property(sigma_f6, sigma_f):
    for fp in (sigma_f6, sigma_f):
        n = fp.n
        q_n = opp_shift(n)
        tables = _CycleTables(fp)
        for k in range(1, fp.genus()):
            flip = q_n * tau(n) ** (2 * k + 1)
            assert _opp_tau(n, 2 * k + 1) == (0, *flip.one_line())
        for dec in find_decompositions(fp):
            flip = q_n * tau(n) ** (2 * dec.k + 1)
            assert flip * flip == identity(4 * n)
            assert flip(dec.x) == dec.y and flip(dec.y) == dec.x
            assert flip(dec.a) == dec.b and flip(dec.b) == dec.a
            if dec.k == fp.genus() - 1:
                assert dec.y == opposite(dec.x, n)
                assert dec.b == opposite(dec.a, n)


def test_decomposition_at_rejects_crossing_chords(sigma_f6):
    # swap two anchors to force crossing chords; spans no longer nest
    good = Decomposition(k=5, l=1, x=23, a=38, y=1, b=16, type=(28, 6, 10, 4))
    assert decomposition_at(sigma_f6, 23, 38, 1, 16, 5) == good
    bad = Decomposition(k=5, l=1, x=23, a=16, y=1, b=38, type=(28, 6, 10, 4))
    with pytest.raises(ChordsCross, match="cross inside the polygon"):
        reference_separating(sigma_f6, bad)
    assert decomposition_at(sigma_f6, 23, 16, 1, 38, 5) is None
    # an anchor off the label range is named, not read as a table index
    for sym in (0, 45):
        with pytest.raises(SurgeryError, match=f"anchor {sym} out of range 1..44"):
            decomposition_at(sigma_f6, sym, 38, 1, 16, 5)


def test_extract_k5_printed(sigma_f6):
    dec = Decomposition(k=5, l=1, x=23, a=38, y=1, b=16, type=(28, 6, 10, 4))
    cut, remainder = extract(sigma_f6, dec)
    assert cut == CUT_F6_K5
    assert remainder == [1, 2, 3, 4]


def test_extract_f3_printed(sigma_f):
    dec = Decomposition(k=2, l=1, x=1, a=4, y=11, b=14, type=(8, 4, 8, 4))
    cut, remainder = extract(sigma_f, dec)
    assert cut == CUT_F3_K2
    assert remainder == [1, 2, 3, 4]


def test_extract_rejects_repeated_anchors(sigma_f6):
    # (3, 38, 3, 38) with type (12, s, 12, s) meets all four span equations,
    # but two runs start at each anchor; it is no candidate of the anchor
    # search (y = flip[3] = 39 at k = 3), so the cut check refuses it
    cycle = sigma_f6.regions[0]
    s = (cycle.index(opposite(3, 11)) - cycle.index(38)) % 44 + 1
    dec = Decomposition(k=3, l=3, x=3, a=38, y=3, b=38, type=(12, s, 12, s))
    with pytest.raises(SurgeryError, match=(
        rf"^k=3 l=3 anchors \(3, 38, 3, 38\) type \(12, {s}, 12, {s}\)"
        r" is no decomposition of this genus-6 pair$"
    )):
        extract(sigma_f6, dec)


def test_extract_checks_the_decomposition(sigma_f6):
    # the k = 5 witness relabelled as a genus-4 piece on a genus-2 remainder,
    # and anchors off the label range, are input errors of extract and of
    # disassemble and round_trip_check, which cut through it
    relabelled = Decomposition(k=4, l=2, x=23, a=38, y=1, b=16, type=(28, 6, 10, 4))
    for cut in (extract, disassemble, round_trip_check):
        with pytest.raises(SurgeryError, match=(
            r"^k=4 l=2 anchors \(23, 38, 1, 16\) type \(28, 6, 10, 4\)"
            r" is no decomposition of this genus-6 pair$"
        )):
            cut(sigma_f6, relabelled)
        for sym in (0, 45):
            off = Decomposition(k=5, l=1, x=sym, a=38, y=1, b=16, type=(28, 6, 10, 4))
            with pytest.raises(SurgeryError, match=f"anchor {sym} out of range 1..44"):
                cut(sigma_f6, off)


def test_cuts_reject_every_candidate_that_is_no_witness(sigma_f, zeta, sigma_f6, zeta_prime):
    # extract holds a caller's cut to the search's rule, so a candidate of
    # the anchor search that is no witness is an input error of extract and
    # of disassemble and round_trip_check, never an internal CaseGap
    pairs = [assemble(sigma_f, zeta, attachment_site(sigma_f, i)) for i in (1, 3, 5, 7, 9)]
    pairs.append(assemble(sigma_f6, zeta_prime, attachment_site(sigma_f6, 5)))
    rejected = []
    for fp in pairs:
        g = fp.genus()
        tables = _CycleTables(fp)
        for k in range(1, g):
            for anchors, quad in _anchored_types(tables, k):
                dec = Decomposition(k, g - k, *anchors, quad)
                if not _oracle_separates(fp, dec):
                    rejected.append((fp, dec))
    assert len(rejected) == 28
    for fp, dec in rejected:
        assert decomposition_at(fp, *dec.anchors, dec.k) is None
        for cut in (extract, disassemble, round_trip_check):
            with pytest.raises(SurgeryError, match="is no decomposition of this genus-"):
                cut(fp, dec)


def test_extract_cycle_lengths_match_type(sigma_f6):
    for dec in find_decompositions(sigma_f6):
        cut, _ = extract(sigma_f6, dec)
        lengths = sorted(len(c) for c in cut)
        assert lengths == sorted(dec.type)


def test_extract_k3_remainder_is_relabeled_host(sigma_f6):
    dec = Decomposition(k=3, l=3, x=3, a=38, y=39, b=2, type=(12, 4, 12, 4))
    cut, remainder = extract(sigma_f6, dec)
    assert all(flag is False for cyc in cut for _, flag in cyc)
    # the remainder cycle is the relabeled genus-3 host from the assembly
    assert remainder == [1, 2, 25, 44, 19, 18, 43, 38, 17, 22, 23, 40, 21, 20, 39, 24, 3, 16, 41, 42]


def test_decorated_map_fixed_values():
    amap = AssemblyMap(5, 1, 1, 16)
    assert amap.decorated_pre[1] == 8 * 5 + 7
    assert amap.decorated_pre[16] == 8 * 5 + 8
    assert amap.decorated_pre[opposite(1, 11)] == 4 * 5 + 3
    assert amap.decorated_pre[opposite(16, 11)] == 4 * 5 + 4
    # 5 lies on the piece's arcs only
    assert amap.host_pre[5] == 0
    # on a torus host only the site arc's labels have a decorated preimage,
    # and on any other host none has
    assert amap.decorated_pre[3] == 0
    assert not any(AssemblyMap(5, 3, 1, 16).decorated_pre)


def test_disassemble_k5_bit_exact(sigma_f6, z5, f1):
    dec = Decomposition(k=5, l=1, x=23, a=38, y=1, b=16, type=(28, 6, 10, 4))
    piece, remainder = disassemble(sigma_f6, dec)
    assert piece.sigma == z5.sigma
    assert remainder.sigma == f1.sigma


def test_disassemble_f3_bit_exact(sigma_f, zeta_prime, f1):
    dec = Decomposition(k=2, l=1, x=1, a=4, y=11, b=14, type=(8, 4, 8, 4))
    piece, remainder = disassemble(sigma_f, dec)
    assert piece.sigma == zeta_prime.sigma
    assert remainder.sigma == f1.sigma


def test_disassemble_k3_recovers_constituents(sigma_f6, sigma_z, sigma_f):
    dec = Decomposition(k=3, l=3, x=3, a=38, y=39, b=2, type=(12, 4, 12, 4))
    piece, remainder = disassemble(sigma_f6, dec)
    assert piece.sigma == sigma_z.sigma
    assert remainder.sigma == sigma_f.sigma


def test_round_trip_k3_exact(sigma_f6):
    dec = Decomposition(k=3, l=3, x=3, a=38, y=39, b=2, type=(12, 4, 12, 4))
    report = round_trip_check(sigma_f6, dec)
    assert report.exact
    assert report.reassembled.sigma == sigma_f6.sigma


def test_round_trip_k5_conjugate(sigma_f6):
    dec = Decomposition(k=5, l=1, x=23, a=38, y=1, b=16, type=(28, 6, 10, 4))
    report = round_trip_check(sigma_f6, dec)
    assert report.reassembled.sigma == perm(SIGMA_PRIME, 44)
    assert (report.p, report.q) == (0, 4)
    delta = generators(11)[1]
    t = delta**4
    assert report.reassembled.sigma.conjugated_by(t.inverse()) == sigma_f6.sigma


def test_round_trip_rejects_rebuild_off_the_site_powers(sigma_f6, monkeypatch):
    # a rebuild the site's kappa^p delta^q does not carry back is an internal
    # fault, even when another relabeling would: the cut itself was accepted
    import fillperm.surgery as surgery

    kappa = generators(11)[0]
    rebuild = surgery.assemble
    monkeypatch.setattr(
        surgery, "assemble", lambda *args: validate(rebuild(*args).sigma.conjugated_by(kappa))
    )
    dec = Decomposition(k=3, l=3, x=3, a=38, y=39, b=2, type=(12, 4, 12, 4))
    with pytest.raises(
        CaseGap,
        match=r"^kappa\^0 delta\^0 does not carry the rebuild at site \(3, 2\) to the original$",
    ):
        round_trip_check(sigma_f6, dec)


@pytest.mark.parametrize("cls, method, message", [
    (FillingPermutation, "is_z_piece", r"recovered piece is not an attachable piece"),
    (ZType, "__eq__", r"recovered piece type \(4, 28, 6, 10\) does not match \(28, 6, 10, 4\)"),
    (FillingPermutation, "is_minimal", r"recovered remainder is not a minimal pair"),
    (None, None, r"recovered piece or remainder is not a filling pair: "
                 r"cycle entries do not alternate parity at symbol 40$"),
    (None, "piece", r"AssemblyMap\(k=3, l=3, i=3, j=2\), piece side: symbol 1 has no preimage$"),
    (None, "host", r"AssemblyMap\(k=3, l=3, i=3, j=2\), host side: symbol 35 has no preimage$"),
])
def test_pull_back_of_an_accepted_cut_fails_as_case_gap(
    sigma_f6, monkeypatch, cls, method, message
):
    # once extract has accepted the cut, a wrong piece or remainder is an
    # internal fault, not bad input
    if method in ("piece", "host"):
        # on the k = 3 cut, 1 is a remainder label only and 35 is inside the
        # piece only, so neither has a preimage on the other side
        dec = decomposition_at(sigma_f6, 3, 38, 39, 2, 3)
        cut_cycles, remainder_cycle = extract(sigma_f6, dec)
        if method == "piece":
            cut_cycles[0][0] = (1, False)
        else:
            remainder_cycle[1] = 35
    else:
        dec = decomposition_at(sigma_f6, 23, 38, 1, 16, 5)
        cut_cycles, remainder_cycle = extract(sigma_f6, dec)
        if cls is None:
            # two entries of a cut cycle swapped pull back to no filling pair
            first = cut_cycles[0]
            first[1], first[2] = first[2], first[1]
        else:
            monkeypatch.setattr(cls, method, lambda *args: False)
    with pytest.raises(CaseGap, match=f"^{message}"):
        _pull_back(sigma_f6, dec, cut_cycles, remainder_cycle)


def test_kappa_delta_closed_form(sigma_f6, monkeypatch):
    # t^-1 = kappa^-p delta^-q as one arc map, odd arcs p places back and even
    # arcs q places back, for every power
    import fillperm.surgery as surgery

    cached = surgery._kappa_delta_inverse
    for n in range(1, 17):
        kappa, delta, _, _ = generators(n)
        for p in range(n):
            for q in range(n):
                assert cached(n, p, q) == (kappa**p * delta**q).inverse(), (n, p, q)
    # and the map round_trip_check conjugates by is that one, built once per
    # (n, p, q)
    cached.cache_clear()
    maps = []

    def spy(n, p, q):
        maps.append((n, p, q, cached(n, p, q)))
        return maps[-1][-1]

    monkeypatch.setattr(surgery, "_kappa_delta_inverse", spy)
    kappa, delta, _, _ = generators(sigma_f6.n)
    powers = [round_trip_check(sigma_f6, dec) for dec in find_decompositions(sigma_f6)]
    assert len(maps) == len(powers) == 26
    for (n, p, q, back), report in zip(maps, powers):
        assert (n, p, q) == (sigma_f6.n, report.p, report.q)
        assert back == (kappa**report.p * delta**report.q).inverse(), report
    assert cached.cache_info().misses == len({(p, q) for _, p, q, _ in maps})


def _site_powers(dec, n):
    # the closed form round_trip_check promises: the rebuild puts the cut's
    # site arcs a and b at host arcs min(a, 2l - 1) and min(b, 2l - 1), so on
    # a torus remainder at arc 1, and the powers carry them back
    (i,) = [s for s in dec.anchors if s <= 2 * n and s % 2 == 1]
    (j,) = [s for s in dec.anchors if s <= 2 * n and s % 2 == 0]
    a, b, n_host = (i + 1) // 2, j // 2, 2 * dec.l - 1
    return ((min(a, n_host) - a) % n, (min(b, n_host) - b) % n)


def test_round_trip_all_found(sigma_f6, sigma_f, f4):
    for fp in (sigma_f6, sigma_f, f4):
        for dec in find_decompositions(fp):
            report = round_trip_check(fp, dec)
            kappa, delta, _, _ = generators(fp.n)
            t = kappa**report.p * delta**report.q
            assert report.reassembled.sigma.conjugated_by(t.inverse()) == fp.sigma
            assert (report.p, report.q) == _site_powers(dec, fp.n), dec


def _first_witness(fp, ks):
    # the first candidate over the piece genera ks that is a witness, or None
    tables = _CycleTables(fp)
    g = tables.genus
    for k in ks:
        for anchors, quad in _anchored_types(tables, k):
            dec = Decomposition(k, g - k, *anchors, quad)
            if _is_witness(tables, dec):
                return dec
    return None


def _check_round_trip(fp, dec):
    report = round_trip_check(fp, dec)
    assert (report.p, report.q) == _site_powers(dec, fp.n), (fp, dec)
    kappa, delta, _, _ = generators(fp.n)
    t = kappa**report.p * delta**report.q
    assert report.reassembled.sigma.conjugated_by(t.inverse()) == fp.sigma, (fp, dec)


def test_round_trips_of_random_witnesses_at_genus_6_to_32():
    # one seeded pair per genus: its first torus witness, which pulls back
    # through the decorated table, and its first inner witness when it has
    # one; inner witnesses grow rare with genus, so the next test draws them
    # at genus 6
    rng = random.Random(32)
    for n in range(11, 64, 2):
        fp = random_minimal_pair(n, rng)
        g = fp.genus()
        _check_round_trip(fp, _first_witness(fp, [g - 1]))
        dec = _first_witness(fp, range(g - 2, 0, -1))
        if dec is not None:
            _check_round_trip(fp, dec)


def test_round_trips_of_random_inner_witnesses_at_genus_6():
    # seeded genus-6 pairs, drawn until eight have an inner witness; a site
    # arc past the remainder's 2l - 1 arcs puts the rebuild a few arcs away,
    # which no assembled sum in the fixtures shows
    rng = random.Random(32)
    decs = []
    for _ in range(2000):
        fp = random_minimal_pair(11, rng)
        dec = _first_witness(fp, range(fp.genus() - 2, 0, -1))
        if dec is not None:
            decs.append((fp, dec))
            if len(decs) == 8:
                break
    assert len(decs) == 8
    for fp, dec in decs:
        _check_round_trip(fp, dec)
    assert any(_site_powers(dec, fp.n) != (0, 0) for fp, dec in decs)


def test_genus_4_census_decomposes_and_round_trips():
    # every genus-4 orbit representative splits as a genus-3 piece on a torus
    # and comes back by the label cycling its cut site forces, never exactly
    records = read_census(GOLDEN / "census_single_n7.jsonl")
    assert len(records) == 168
    total = 0
    for rec in records:
        fp = validate(Permutation(rec.canonical_form), rec.n)
        decs = find_decompositions(fp)
        assert rec.decomposable and decs, rec.canonical_form
        total += len(decs)
        for dec in decs:
            assert (dec.k, dec.l) == (3, 1)
            report = round_trip_check(fp, dec)
            assert (report.p, report.q) == _site_powers(dec, fp.n)
            assert not report.exact
    assert total == 1400


def test_assemble_then_decompose_round_trip(sigma_f, zeta, sigma_z):
    # build at every possible site and confirm the joint is rediscovered,
    # up to relabeling (the gluing may re-orient one piece curve)
    from fillperm import are_equivalent

    for piece, k in ((zeta, 2), (sigma_z, 3)):
        for i in (1, 7, 9):
            site = attachment_site(sigma_f, i)
            total = assemble(sigma_f, piece, site)
            hits = []
            for dec in find_decompositions(total, k=k):
                rec_piece, rec_rem = disassemble(total, dec)
                if (
                    are_equivalent(rec_piece, piece) is not None
                    and are_equivalent(rec_rem, sigma_f) is not None
                ):
                    hits.append(dec)
            assert hits, f"assembly joint not rediscovered for k={k}, i={i}"
