"""Filling conditions, genus, edge semantics, vertex orbits, piece recognition."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from fillperm import (
    AlternationViolation,
    read_census,
    EquationViolation,
    FillingError,
    FillingPermutation,
    Permutation,
    SizeNotMultipleOf4,
    ZType,
    opposite,
    tau,
    validate,
)
from fillperm.cli import read_filling_file
from fillperm.filling import _arc_of, _label_of, _opp_tau

from conftest import identity, opp_shift, order, perm
from random_pairs import random_minimal_pair, random_pair

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def naive_vertex_orbit(sigma, n, e):
    """Oracle: iterate e -> (sigma(e) + 2n mod 4n) without library helpers."""
    m = 4 * n
    orbit, x = [], e
    while True:
        orbit.append(x)
        x = (sigma(x) + 2 * n - 1) % m + 1
        if x == e:
            return orbit


def test_tau_n1_is_identity():
    assert tau(1) == identity(4)


def test_tau_n6_printed_form():
    expected = perm(
        "(1,3,5,7,9,11)(2,4,6,8,10,12)(23,21,19,17,15,13)(24,22,20,18,16,14)", 24
    )
    assert tau(6) == expected


@pytest.mark.parametrize("n", range(1, 17))
def test_tau_matches_cycle_construction(n):
    # the reference: one cycle per curve and orientation
    m = 4 * n
    cycles = Permutation.from_cycles(
        [
            list(range(1, 2 * n, 2)),
            list(range(2, 2 * n + 1, 2)),
            list(range(m - 1, 2 * n, -2)),
            list(range(m, 2 * n + 1, -2)),
        ],
        m,
    )
    assert tau(n).one_line() == cycles.one_line()


@pytest.mark.parametrize("n", range(1, 17))
def test_opp_tau_matches_composition(n):
    # opp o tau^s, index 0 unused, for every power up to a full lap 2n
    opp = opp_shift(n)
    for s in range(2 * n + 1):
        table = _opp_tau(n, s)
        assert table == (0, *(opp * tau(n) ** s).one_line())
        assert all(table[table[e]] == e for e in range(1, 4 * n + 1))
    assert [_opp_tau(n, 0)[e] for e in range(1, 4 * n + 1)] == [
        opposite(e, n) for e in range(1, 4 * n + 1)
    ]


def test_tau_refuses_n_below_1():
    with pytest.raises(ValueError, match="n must be >= 1"):
        tau(0)


@pytest.mark.parametrize("n", range(2, 13))
def test_tau_order(n):
    assert order(tau(n)) == n


@pytest.mark.parametrize("n", range(1, 13))
def test_tau_anticommutes_with_opposite_shift(n):
    q_n = opp_shift(n)
    t = tau(n)
    assert t * q_n == q_n * t.inverse()


def test_opposite_values():
    assert opposite(23, 11) == 1
    assert opposite(1, 6) == 13
    for n in (1, 3, 6, 11):
        for e in range(1, 4 * n + 1):
            assert opposite(opposite(e, n), n) == e
    with pytest.raises(ValueError):
        opposite(25, 6)


def test_validate_fixtures(zeta, f1):
    assert zeta.n == 6 and zeta.region_count == 4
    assert f1.n == 1 and f1.region_count == 1


def test_validate_alternation_violation():
    with pytest.raises(AlternationViolation) as exc:
        validate(perm("(1,3,2,4)", 4), 1)
    assert exc.value.symbol == 1


def test_validate_equation_violation():
    # alternating but wrong gluing: swap two images of a valid permutation
    with pytest.raises(EquationViolation):
        validate(perm("(1,2)(3,4)", 4), 1)


def test_validate_size_not_multiple_of_4():
    with pytest.raises(SizeNotMultipleOf4):
        validate(identity(6))


def test_validate_inconsistent_n():
    with pytest.raises(ValueError, match="inconsistent"):
        validate(perm("(1,2,3,4)", 4), 2)


@pytest.mark.parametrize("sigma, n, error, message", [
    (identity(6), 1, SizeNotMultipleOf4, "permutation size 6 is not a multiple of 4"),
    (perm("(1,2,3,4)", 4), 2, FillingError, "n=2 inconsistent with permutation size 4"),
    (perm("(1,3,2,4)", 4), 1, AlternationViolation,
     "cycle entries do not alternate parity at symbol 1"),
    (perm("(1,2)(3,4)", 4), 1, EquationViolation, "crossing equation fails at symbol 1"),
])
def test_construction_checks_as_validate(sigma, n, error, message):
    # building a pair directly is held to the same checks as validate
    for build in (FillingPermutation, validate):
        with pytest.raises(FillingError) as exc:
            build(sigma, n)
        assert type(exc.value) is error and str(exc.value) == message


def test_constructed_pair_is_validated_pair(zeta, sigma_f6):
    for fp in (zeta, sigma_f6):
        checked, direct = validate(fp.sigma), FillingPermutation(fp.sigma, fp.sigma.size // 4)
        assert checked == direct and hash(checked) == hash(direct)
        with pytest.raises(AttributeError):
            direct.sigma = fp.sigma
        for name in ("regions", "vertices", "green_vertices"):
            assert name not in vars(direct)
            assert getattr(direct, name) is getattr(direct, name)
            assert name in vars(direct)


def test_genus_values(zeta, f1, f4, sigma_f6):
    assert zeta.genus() == 2
    assert f1.genus() == 1
    assert f4.genus() == 4
    assert sigma_f6.genus() == 6


@pytest.mark.parametrize(
    "e,n,curve,index,positive",
    [
        (3, 6, "alpha", 2, True),
        (24, 6, "beta", 6, False),
        (13, 6, "alpha", 1, False),
        (2, 1, "beta", 1, True),
    ],
)
def test_edge_info(e, n, curve, index, positive):
    # a label decodes to (arc, on the second curve, reversed copy)
    decoded = (index, curve == "beta", not positive)
    assert _arc_of(e, n) == decoded
    assert _label_of(*decoded, n) == e


def test_edge_info_round_trip_all():
    for n in (1, 5, 6):
        for e in range(1, 4 * n + 1):
            assert _label_of(*_arc_of(e, n), n) == e


def test_vertex_orbit_zeta(zeta):
    assert set(zeta.vertex_orbit(11)) == {11, 12, 13, 14}
    assert naive_vertex_orbit(zeta.sigma, 6, 11) == list(zeta.vertex_orbit(11))


def test_vertex_orbit_sigma_f(sigma_f):
    assert set(sigma_f.vertex_orbit(3)) == {2, 3, 14, 15}


def test_vertices_partition(zeta, sigma_f, f4):
    for fp in (zeta, sigma_f, f4):
        symbols = sorted(s for v in fp.vertices for s in v)
        assert symbols == list(range(1, 4 * fp.n + 1))
        assert len(fp.vertices) == fp.n
        assert all(len(v) == 4 for v in fp.vertices)


def test_green_vertices_zeta(zeta):
    assert set(zeta.green_vertices) == {(5, 6, 19, 20), (11, 12, 13, 14)}


def test_green_vertices_zeta_prime(zeta_prime):
    assert set(zeta_prime.green_vertices) == {(5, 6, 19, 20), (11, 12, 13, 14)}


def test_minimal_every_vertex_green(sigma_f):
    assert sigma_f.green_vertices == sigma_f.vertices


def test_is_minimal(zeta, f1, sigma_f6):
    assert not zeta.is_minimal()
    assert f1.is_minimal()
    assert sigma_f6.is_minimal()


def test_is_z_piece(zeta, sigma_z, sigma_f):
    assert zeta.is_z_piece(2)
    assert sigma_z.is_z_piece(3)
    assert not zeta.is_z_piece(3)
    assert not sigma_f.is_z_piece(3)


def test_bigon_piece_is_not_a_z_piece():
    # n = 6, genus 2, four regions and a green vertex, but regions of 2 labels
    bigon = validate(
        perm("(1,4,9,12)(2,13)(3,8,17,18,19,20,5,10,21,6,15,14,23,22,7,16)(11,24)", 24),
        6,
    )
    assert (bigon.genus(), bigon.region_count) == (2, 4)
    assert bigon.green_vertices == ((11, 12, 13, 14),)
    assert not bigon.is_z_piece(2)


def test_z_type_of_bigon_piece_raises_filling_error():
    # the same answer as for a pair with no green vertex, not ZType's ValueError
    bigon = validate(*read_filling_file(str(DATA / "bigon_piece.pair")))
    with pytest.raises(FillingError, match=r"bigon: \(2, 4, 2, 16\)"):
        bigon.z_type()


def test_z_type(zeta, sigma_z, z5):
    assert zeta.z_type() == ZType((8, 4, 8, 4))
    assert zeta.z_type().quad == (4, 8, 4, 8)
    assert sigma_z.z_type().quad == (4, 12, 4, 12)
    assert z5.z_type().matches((28, 6, 10, 4))


def test_z_type_rejects_odd_or_small():
    with pytest.raises(ValueError):
        ZType((3, 4, 4, 5))
    with pytest.raises(ValueError):
        ZType((2, 4, 4, 6))


def test_green_normalized(zeta, sigma_z, z5):
    assert zeta.green_normalized()
    assert sigma_z.green_normalized()
    assert z5.green_normalized()


def test_green_normalized_breaks_under_relabeling(zeta):
    from fillperm import generators

    kappa = generators(6)[0]
    moved = validate(zeta.sigma.conjugated_by(kappa), 6)
    assert not moved.green_normalized()


def test_surface_info(zeta):
    assert zeta.genus() == 2
    assert zeta.region_count == 4
    assert len(zeta.vertices) == 6
    assert len(zeta.green_vertices) == 2


@pytest.mark.parametrize("name", ["zeta", "sigma_z", "sigma_f", "sigma_f6", "f4", "zeta_prime", "z5"])
def test_left_turn_map_has_order_four(name, request):
    fp = request.getfixturevalue(name)
    n = fp.n
    left = opp_shift(n) * fp.sigma
    assert left**4 == identity(4 * n)
    assert left**2 != identity(4 * n)


@pytest.mark.parametrize("name", ["zeta", "sigma_z", "sigma_f", "sigma_f6", "f4", "zeta_prime", "z5"])
def test_parity_alternation(name, request):
    fp = request.getfixturevalue(name)
    assert all((fp.sigma(e) - e) % 2 == 1 for e in range(1, 4 * fp.n + 1))


@pytest.mark.parametrize("name", ["zeta", "sigma_z", "sigma_f", "sigma_f6", "f4", "zeta_prime", "z5"])
def test_genus_parity(name, request):
    fp = request.getfixturevalue(name)
    assert (fp.n - fp.region_count) % 2 == 0


def test_z_type_sum(zeta, sigma_z, z5):
    for fp, k in ((zeta, 2), (sigma_z, 3), (z5, 5)):
        assert sum(fp.z_type().quad) == 8 * k + 8 == 4 * fp.n


# Label-walk oracles: the crossing checks, the vertices and the piece type as
# they were computed before they read opp o tau off its table.


def walked_filling_error(sigma, n):
    """(exception class, first symbol) of the label-by-label filling check,
    or None for a filling permutation of size 4n."""
    m = 4 * n
    for e in range(1, m + 1):
        if (sigma(e) - e) % 2 == 0:
            return AlternationViolation, e
    t = tau(n)
    for e in range(1, m + 1):
        if sigma(opposite(sigma(e), n)) != t(e):
            return EquationViolation, e
    return None


def walked_vertices(fp):
    seen, out = set(), []
    for e in range(1, 4 * fp.n + 1):
        if e not in seen:
            orbit = naive_vertex_orbit(fp.sigma, fp.n, e)
            seen.update(orbit)
            out.append(tuple(sorted(orbit)))
    return tuple(out)


def walked_green_vertices(fp):
    region_of = {s: idx for idx, region in enumerate(fp.regions) for s in region}
    return tuple(
        v for v in walked_vertices(fp)
        if {region_of[s] for s in v} == set(range(fp.region_count))
    )


def walked_z_type(fp):
    green = walked_green_vertices(fp)
    normalized = tuple(sorted(naive_vertex_orbit(fp.sigma, fp.n, 2 * fp.n - 1)))
    anchor = normalized if normalized in green else green[0]
    size_of = {s: len(region) for region in fp.regions for s in region}
    return ZType(tuple(size_of[s] for s in naive_vertex_orbit(fp.sigma, fp.n, min(anchor))))


def _oracle_pairs():
    pieces = [validate(perm(line, 24))
              for line in (DATA / "genus2_pieces.txt").read_text().splitlines()]
    representatives = [
        validate(Permutation(rec.canonical_form), rec.n)
        for name in ("census_single_n5.jsonl", "census_single_n7.jsonl")
        for rec in read_census(GOLDEN / name)
    ]
    rng = random.Random(33)
    drawn = [random_minimal_pair(n, rng) for n in range(11, 64, 2)]
    return pieces, representatives, drawn


def test_crossing_reads_match_the_label_walk():
    pieces, representatives, drawn = _oracle_pairs()
    assert (len(pieces), len(representatives), len(drawn)) == (56, 173, 27)
    for fp in [*pieces, *representatives, *drawn]:
        for e in range(1, 4 * fp.n + 1):
            assert list(fp.vertex_orbit(e)) == naive_vertex_orbit(fp.sigma, fp.n, e)
        assert fp.vertices == walked_vertices(fp)
        assert fp.green_vertices == walked_green_vertices(fp)
        assert fp.z_type() == walked_z_type(fp)
    assert all(fp.green_vertices != fp.vertices for fp in pieces)


def test_green_vertices_match_the_label_walk_at_every_region_count():
    # c = 1 (every crossing green), 2 to 4 (read off the region index) and
    # c > 4 (no crossing touches five regions)
    rng = random.Random(33)
    counts = set()
    for n in range(1, 17):
        for _ in range(6):
            fp = random_pair(n, rng)
            counts.add(fp.region_count)
            assert fp.vertices == walked_vertices(fp)
            assert fp.green_vertices == walked_green_vertices(fp)
    assert {1, 2, 3, 4, 5} <= counts


def test_corrupted_pairs_fail_as_the_label_walk():
    # swapping two images breaks alternation when the labels differ in
    # parity and the crossing equation otherwise; either way the check names
    # the same first symbol as the walk
    rng = random.Random(33)
    seen = set()
    for n in range(1, 17):
        for _ in range(40):
            images = list(random_pair(n, rng).sigma.one_line())
            a, b = rng.sample(range(4 * n), 2)
            images[a], images[b] = images[b], images[a]
            sigma = Permutation(images)
            want = walked_filling_error(sigma, n)
            if want is None:
                validate(sigma, n)
                continue
            with pytest.raises(FillingError) as exc:
                FillingPermutation(sigma, n)
            assert (type(exc.value), exc.value.symbol) == want
            seen.add(want[0])
    assert seen == {AlternationViolation, EquationViolation}
