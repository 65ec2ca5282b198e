"""Exhaustive enumeration, orbit counting, bounds, census persistence."""

from __future__ import annotations

import gc
import gzip
import itertools
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import fillperm.census
import fillperm.cli
from fillperm import (
    BoundExceeded,
    CensusRecord,
    Permutation,
    census_records,
    enumerate_filling,
    generators,
    read_census,
    tau,
    twist_group,
    upper_bound,
    validate,
    write_census,
)
from fillperm.census import _crossing_blocks
from fillperm.surgery import _reverse_second, find_decompositions
from fillperm.twist import _least, _slice_conjugates, _slice_table

from conftest import conjugate_oneline, is_valid, opp_shift, opposite

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
DATA = Path(__file__).resolve().parent / "data"


def brute_force_solutions(n):
    """Oracle: filter all of S_4n by alternation plus the crossing equation.

    Only feasible for n = 1 (24 permutations).
    """
    m = 4 * n
    t = tau(n)
    q_n = opp_shift(n)
    out = []
    for images in itertools.permutations(range(1, m + 1)):
        if any((img - e - 1) % 2 for e, img in enumerate(images, start=1)):
            continue
        p = Permutation(images)
        if p * q_n * p == t:
            out.append(p)
    return out


def test_enumerate_n1_against_brute_force():
    oracle = {p.one_line() for p in brute_force_solutions(1)}
    assert oracle == {(2, 3, 4, 1), (4, 1, 2, 3)}  # (1,2,3,4) and (1,4,3,2)
    got = {Permutation(p).one_line() for p in enumerate_filling(1, single_cycle=False)}
    assert got == oracle
    single = {Permutation(p).one_line() for p in enumerate_filling(1, single_cycle=True)}
    assert single == oracle


def slice_of(n, single_cycle):
    """The slice S = {sigma : sigma(1) = 2}, as bytes keys, from the
    unit-propagation oracle, which shares no code with the census search."""
    return [bytes(s) for s in propagation_enumeration(n, single_cycle, slice_only=True)]


def test_enumerate_n3_single_cycle_empty():
    assert enumerate_filling(3, single_cycle=True) == []


@pytest.mark.parametrize("expand", [False, True])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_single_cycle_is_empty_at_even_n(n, expand):
    # n - c is even, so one region needs odd n: neither the search's kept
    # classes nor their expansion by the relabeling table hold a solution
    if expand:
        assert enumerate_filling(n, True) == []
    else:
        assert fillperm.census._search(n, True) == []


def test_single_cycle_returns_before_any_block_at_even_n(monkeypatch):
    def blocks(n):
        raise AssertionError("built crossing blocks for an even single-cycle n")

    def table(n):
        raise AssertionError("built the relabeling table for an even single-cycle n")

    monkeypatch.setattr(fillperm.census, "_crossing_blocks", blocks)
    monkeypatch.setattr(fillperm.census, "_slice_table", table)
    for n in (2, 4, 10, 62):
        assert enumerate_filling(n, True) == []
        assert fillperm.census._search(n, True) == []


def test_enumerate_n3_general_solutions_are_genus_one():
    sols = enumerate_filling(3, single_cycle=False)
    assert sols
    from fillperm import validate

    for p in sols:
        fp = validate(Permutation(p), 3)
        assert fp.genus() == 1 and fp.region_count == 3


def test_enumerate_n5_nonempty_and_valid():
    sols = enumerate_filling(5, single_cycle=True)
    assert len(sols) == 600
    for p in map(Permutation, sols[::37]):
        assert is_valid(p, 5)
        assert len(p.cycles()) == 1


def test_enumerate_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        enumerate_filling(5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_closed_under_relabeling():
    sols = {Permutation(p).one_line() for p in enumerate_filling(5, single_cycle=True)}
    for g in generators(5):
        for one in sols:
            assert Permutation(one).conjugated_by(g).one_line() in sols


def test_symmetry_reduced_meets_every_orbit():
    full = enumerate_filling(5, single_cycle=True)
    reduced = slice_of(5, True)
    assert len(reduced) < len(full)
    group = [t.one_line() for t in twist_group(5)]
    reduced_canon = {min(conjugate_oneline(p, t) for t in group) for p in reduced}
    full_canon = {min(conjugate_oneline(p, t) for t in group) for p in full}
    assert reduced_canon == full_canon


def propagation_enumeration(n, single_cycle, slice_only):
    """Oracle: the search by unit propagation that the crossing-block kernel
    replaced.  Each choice sigma(e) = f queues the forced assignments
    sigma(opp f) = tau e and sigma(tau^-1 f) = opp e, which are propagated
    to a fixpoint; single-cycle mode rejects a cycle that closes early, and
    `slice_only` restricts the root to sigma(1) = 2."""
    m = 4 * n
    # 1-based arrays; index 0 unused
    tau_arr = [0, *tau(n).one_line()]
    tau_inv = [0] * (m + 1)
    for e in range(1, m + 1):
        tau_inv[tau_arr[e]] = e
    opp = [0] + [opposite(e, n) for e in range(1, m + 1)]

    sigma = [0] * (m + 1)
    preimage = [0] * (m + 1)
    start_of = list(range(m + 1))  # start of the open path ending at index
    end_of = list(range(m + 1))  # end of the open path starting at index
    assigned = 0
    solutions = []

    def propagate(e0, f0, trail):
        nonlocal assigned
        queue = [(e0, f0)]
        while queue:
            e, f = queue.pop()
            if sigma[e]:
                if sigma[e] != f:
                    return False
                continue
            if preimage[f]:
                return False
            if single_cycle:
                s = start_of[e]
                t = end_of[f]
                if s == f:
                    if assigned + 1 != m:
                        return False
                    trail.append((e, f, None))
                else:
                    trail.append((e, f, (s, t)))
                    end_of[s] = t
                    start_of[t] = s
            else:
                trail.append((e, f, None))
            sigma[e] = f
            preimage[f] = e
            assigned += 1
            queue.append((opp[f], tau_arr[e]))
            queue.append((tau_inv[f], opp[e]))
        return True

    def undo(trail):
        nonlocal assigned
        for e, f, merge in reversed(trail):
            sigma[e] = 0
            preimage[f] = 0
            assigned -= 1
            if merge is not None:
                s, t = merge
                end_of[s] = e
                start_of[t] = f

    def search():
        if assigned == m:
            solutions.append(tuple(sigma[1:]))
            return
        e = next(e for e in range(1, m + 1) if not sigma[e])
        if slice_only and assigned == 0 and e == 1:
            candidates = [2]
        else:
            first = 2 if e % 2 == 1 else 1
            candidates = [f for f in range(first, m + 1, 2) if not preimage[f]]
        for f in candidates:
            trail = []
            if propagate(e, f, trail):
                search()
            undo(trail)

    search()
    del search
    return solutions


@pytest.mark.parametrize("slice_only", [False, True])
@pytest.mark.parametrize(
    "n,single_cycle",
    [(n, False) for n in range(1, 7)] + [(n, True) for n in (1, 3, 5, 7)],
)
def test_crossing_blocks_match_propagation(n, single_cycle, slice_only):
    got = enumerate_filling(n, single_cycle)
    if slice_only:
        got = [s for s in got if s[0] == 2]
    assert list(map(tuple, got)) == propagation_enumeration(n, single_cycle, slice_only)


def test_enumeration_misses_exactly_a_dropped_class(monkeypatch):
    # enumerate_filling is the union of the census search's classes, so a
    # class the search loses is lost whole: its 8n^2 / |Stab| members
    search = fillperm.census._search
    (dropped, stabilizer), *rest = search(5, True)
    monkeypatch.setattr(fillperm.census, "_search", lambda n, single_cycle: rest)
    got = set(map(tuple, enumerate_filling(5)))
    want = set(propagation_enumeration(5, True, False))
    assert got <= want
    missing = want - got
    assert len(missing) == 8 * 5 * 5 // stabilizer
    assert missing == {conjugate_oneline(dropped, t.one_line()) for t in twist_group(5)}


@pytest.mark.parametrize("n", [2, 4])
def test_propagation_finds_no_single_cycle_at_even_n(n):
    # the oracle searches even n in full, where enumerate_filling returns early
    for slice_only in (False, True):
        assert propagation_enumeration(n, True, slice_only) == []


@pytest.mark.parametrize("n", range(1, 13))
def test_forcing_map_has_order_four(n):
    # A(e, f) = (opp f, tau e): the assignment sigma(e) = f forces A(e, f).
    # The full forcing table files each block under each of its four labels;
    # the search's rows keep one copy, under the least label
    t = tau(n)
    rows = _crossing_blocks(n)
    assert rows[0] == ()
    blocks, kept = set(), []
    for e in range(1, 4 * n + 1):
        full = []
        for f in range(2 if e % 2 else 1, 4 * n + 1, 2):
            orbit = [(e, f)]
            for _ in range(4):
                x, y = orbit[-1]
                orbit.append((opposite(y, n), t(x)))
            assert orbit[4] == orbit[0]
            assert len({x for x, _ in orbit}) == 4
            # the images are tau of the labels, so they are distinct too, and
            # blocks with disjoint labels have disjoint images
            assert {y for _, y in orbit} == {t(x) for x, _ in orbit}
            pairs = tuple(orbit[:4])
            full.append((sum(1 << (x - 1) for x, _ in pairs), pairs))
            blocks.add(frozenset(pairs))
        # row e holds, in increasing f, the blocks whose least label is e
        assert rows[e] == tuple(b for b in full if min(x for x, _ in b[1]) == e)
        # every dropped copy holds a label below e, which is covered whenever
        # the search reads row e, so the copy would fail `labels & used`
        below = (1 << (e - 1)) - 1
        assert all(labels & below for labels, pairs in full if (labels, pairs) not in rows[e])
        kept += [frozenset(pairs) for _, pairs in rows[e]]
    # each of the 2n^2 blocks is kept once, a quarter of the 8n^2 copies
    assert len(kept) == len(set(kept)) == len(blocks) == 2 * n * n
    assert set(kept) == blocks


def test_bound_exceeded(capsys, monkeypatch):
    # the census's run-length bound is the command's: n <= 7 single-cycle and
    # n <= 5 general by default, refused before anything is enumerated
    def census_records(*args, **kwargs):
        raise AssertionError("enumerated before the run-length bound was checked")

    monkeypatch.setattr(fillperm.cli, "census_records", census_records)
    monkeypatch.delenv("FILLPERM_MAX_N", raising=False)
    for args, message in (
        (["--n", "8", "--single-cycle"], "error: n=8 exceeds the configured bound 7\n"),
        (["--n", "6"], "error: n=6 exceeds the configured bound 5\n"),
    ):
        assert fillperm.cli.main(["census", *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == message


@pytest.mark.parametrize("slice_only", [False, True])
@pytest.mark.parametrize("n,single_cycle", [(5, True), (3, False)])
def test_enumeration_emits_bytes_keys(n, single_cycle, slice_only):
    sols = enumerate_filling(n, single_cycle)
    if slice_only:
        sols = [s for s in sols if s[0] == 2]
    assert sols
    assert all(type(s) is bytes and len(s) == 4 * n for s in sols)
    assert sols == sorted(set(sols))


def test_enumeration_refuses_labels_beyond_a_byte(monkeypatch):
    def blocks(n):
        raise AssertionError("searched before the byte bound was checked")

    monkeypatch.setattr(fillperm.census, "_crossing_blocks", blocks)
    with pytest.raises(BoundExceeded, match="n=64 exceeds 63"):
        enumerate_filling(64, single_cycle=False)
    with pytest.raises(BoundExceeded, match="n must be >= 1"):
        enumerate_filling(0)


def test_census_holds_one_form_of_each_solution():
    # as tuples, the slice's 9,408 solutions alone would hold about 2.6 MB
    census_records(7)  # warm the crossing blocks and the relabeling table
    tracemalloc.start()
    try:
        census_records(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_census_refuses_labels_beyond_a_byte(monkeypatch):
    # no crossing block is built, so nothing is enumerated either
    def blocks(n):
        raise AssertionError("searched before the byte bound was checked")

    monkeypatch.setattr(fillperm.census, "_crossing_blocks", blocks)
    with pytest.raises(BoundExceeded, match="n=64 exceeds 63"):
        census_records(64)


@pytest.mark.parametrize("n", range(1, 10))
def test_sweep_kernels_file_each_relabeling_under_its_two_heads(n):
    # the two heads of t are t^-1(1) and t^-1(2); a cell is empty exactly
    # when its y is 0 or has the parity of its x
    m = 4 * n
    table = _slice_table(n)
    assert len(table) == m and all(len(row) == m + 1 for row in table)
    cells = {}
    for x, row in enumerate(table, start=1):
        for y, cell in enumerate(row):
            if y == 0 or (x - y) % 2 == 0:
                assert cell is None
                continue
            inv, t0 = cell
            assert len(t0) == 256 and t0[0] == 0
            cells.setdefault((inv, t0[1 : m + 1]), []).append((x, y))
    assert len(cells) == 8 * n * n
    assert sorted(tuple(t) for _, t in cells) == [t.one_line() for t in twist_group(n)]
    for (inv, t), found in cells.items():
        assert [t[x - 1] for x in inv] == list(range(1, m + 1))  # inv is t^-1
        assert found == [(inv[0], inv[1])]


def test_sweep_conjugates_by_two_translates():
    # t sigma t^-1 for every kernel of the table, not only those sigma selects,
    # and the slice conjugates of sigma are exactly the conjugates in the slice
    n = 5
    kernels = [
        (*cell, tuple(cell[1][1 : 4 * n + 1]))
        for row in _slice_table(n)
        for cell in row
        if cell is not None
    ]
    assert len(kernels) == 8 * n * n
    pad = bytes(255 - 4 * n)
    for sigma in slice_of(n, False):
        at = b"\0" + bytes(sigma) + pad
        in_slice = []
        for inv, t0, t in kernels:
            conjugate = conjugate_oneline(sigma, t)
            assert tuple(inv.translate(at).translate(t0)) == conjugate
            if conjugate[0] == 2:
                in_slice.append((conjugate, t))
        cells = map(tuple.__getitem__, _slice_table(n), bytes(sigma))
        found = [(tuple(c), tuple(t0[1 : 4 * n + 1]))
                 for c, (_, t0) in zip(_slice_conjugates(bytes(sigma)), cells)]
        assert len(found) == 4 * n
        assert sorted(found) == sorted(in_slice)


def test_count_orbits_n1():
    _, records = census_records(1, single_cycle=True)
    assert len(records) == 1
    assert records[0].orbit_size_raw == 2
    assert records[0].genus == 1
    assert not records[0].decomposable


def test_count_orbits_n3():
    assert census_records(3, single_cycle=True) == (0, [])


def test_count_orbits_n5():
    _, records = census_records(5, single_cycle=True)
    assert 1 <= len(records) <= upper_bound(3)
    assert len(records) == 5
    assert sum(r.orbit_size_raw for r in records) == 600
    assert all(r.genus == 3 and r.c == 1 for r in records)
    # every genus-3 minimal pair splits off a genus-2 piece
    assert all(r.decomposable for r in records)


def test_census_records_nonminimal():
    total, records = census_records(2, single_cycle=False)
    assert total == sum(r.orbit_size_raw for r in records) == 8
    # one sphere pair (four regions) and one torus pair (two regions)
    assert [(r.c, r.genus, r.orbit_size_raw) for r in records] == [
        (4, 0, 4),
        (2, 1, 4),
    ]
    assert not any(r.decomposable for r in records)


def test_upper_bound_values():
    assert upper_bound(3) == 672
    assert upper_bound(4) == 84480
    with pytest.raises(ValueError):
        upper_bound(2)


def test_upper_bound_monotone():
    values = [upper_bound(g) for g in range(3, 12)]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_census_round_trip(tmp_path):
    _, records = census_records(5, single_cycle=True)
    path = tmp_path / "n5.census"
    write_census(records, path)
    assert read_census(path) == records
    lines = path.read_text().splitlines()
    assert len(lines) == len(records)
    # deterministic: records arrive sorted by canonical form
    forms = [r.canonical_form for r in records]
    assert forms == sorted(forms)


def test_census_canonical_forms_validate():
    _, records = census_records(5, single_cycle=True)
    for rec in records:
        assert is_valid(Permutation(rec.canonical_form), 5)


@pytest.mark.parametrize(
    "n,single_cycle",
    [(5, True), (7, True)] + [(n, False) for n in range(1, 6)],
)
def test_census_matches_golden(tmp_path, n, single_cycle):
    golden = GOLDEN / f"census_{'single' if single_cycle else 'general'}_n{n}.jsonl"
    path = tmp_path / golden.name
    write_census(census_records(n, single_cycle=single_cycle)[1], path)
    assert path.read_bytes() == golden.read_bytes()


def test_general_census_n6_matches_golden(tmp_path):
    # general mode at the first size above the n <= 5 goldens
    total, records = census_records(6, single_cycle=False)
    assert (total, len(records)) == (46_080, 199)
    path = tmp_path / "census_general_n6.jsonl"
    write_census(records, path)
    assert path.read_bytes() == (DATA / "census_general_n6.jsonl").read_bytes()


def signs_agree(fp):
    """Whether all crossings have the same sign.  Crossing i (i = 1, 3, ...,
    2n - 1) is positive when the second left edge of its orbit is a positive
    even label; a pair whose signs all agree is a [1,1] origami."""
    n = fp.n
    seconds = [fp.vertex_orbit(i)[1] for i in range(1, 2 * n, 2)]
    return len({v % 2 == 0 and v <= 2 * n for v in seconds}) == 1


@pytest.mark.parametrize("n, orbits, raw", [(5, 1, 100), (7, 4, 1_568)])
def test_coherent_sign_totals(n, orbits, raw):
    records = read_census(GOLDEN / f"census_single_n{n}.jsonl")
    coherent = [r for r in records if signs_agree(validate(Permutation(r.canonical_form), n))]
    assert (len(coherent), sum(r.orbit_size_raw for r in coherent)) == (orbits, raw)


def test_genus_5_census_golden():
    # the n = 9 single-cycle census as `fillperm census` writes it, gzipped;
    # CI regenerates it through the CLI and compares the two byte for byte
    records = read_census(DATA / "census_single_n9.jsonl.gz")
    assert sum(r.orbit_size_raw for r in records) == 16_609_536
    assert Counter(r.orbit_size_raw for r in records) == {648: 25_360, 324: 540, 162: 8}
    forms = [r.canonical_form for r in records]
    assert all(a < b for a, b in zip(forms, forms[1:]))
    pairs = []
    coherent = []
    for rec in records:
        assert (rec.n, rec.c, rec.genus, rec.decomposable) == (9, 1, 5, True)
        fp = validate(Permutation(rec.canonical_form), 9)
        assert fp.is_minimal() and fp.genus() == 5
        pairs.append((rec, fp))
        if signs_agree(fp):
            coherent.append(rec)
    # 141,264 = 2 x 9 x 7,848: the [1,1] origamis (Aougab-Menasco-Nieland), both signs
    assert (len(coherent), sum(r.orbit_size_raw for r in coherent)) == (236, 141_264)
    for rec, fp in random.Random(9).sample(pairs, 200):
        assert tuple(_least(fp)[0]) == rec.canonical_form
        assert find_decompositions(fp), rec.canonical_form


def test_genus_5_census_reads_back_to_its_bytes(tmp_path):
    # read_census and write_census are inverse on the golden file: each
    # record is rebuilt from its fields and written back in field order
    golden = DATA / "census_single_n9.jsonl.gz"
    path = tmp_path / "census_single_n9.jsonl"
    write_census(read_census(golden), path)
    assert path.read_bytes() == gzip.decompress(golden.read_bytes())


@pytest.mark.parametrize(
    "path, stabilizers",
    [pytest.param(path, None, id=path.name) for path in sorted(GOLDEN.glob("*.jsonl"))]
    + [
        pytest.param(
            DATA / "census_single_n9.jsonl.gz",
            {1: 25_360, 2: 540, 4: 8},
            id="census_single_n9.jsonl.gz",
        )
    ],
)
def test_orbit_size_times_stabilizer_is_group_order(path, stabilizers):
    # |Stab| counts the slice conjugates equal to the least one; a record
    # standing for two merged orbits would read too large an orbit size
    found = Counter()
    for rec in read_census(path):
        conjugates = _slice_conjugates(bytes(rec.canonical_form))
        least = min(conjugates)
        assert tuple(least) == rec.canonical_form
        stabilizer = conjugates.count(least)
        assert rec.orbit_size_raw * stabilizer == 8 * rec.n**2
        found[stabilizer] += 1
    if stabilizers is not None:
        assert found == stabilizers


def sweep_census(n, single_cycle, slice_solutions=None):
    """Oracle: the unpruned route the orderly search replaced.  It enumerates
    the whole slice S = {sigma : sigma(1) = 2} (or takes `slice_solutions`)
    and sweeps it by orbits, each from its first unclassified member through
    its slice conjugates.  A conjugate that was not enumerated raises
    RuntimeError.

    Sum 8n^2 / |Stab| = 2n |S| must hold: missing a class's canonical member
    (but not all of the class) lowers the left side more than the right, and
    missing any other member lowers only the right."""
    if slice_solutions is None:
        slice_solutions = slice_of(n, single_cycle)
    unseen = set(slice_solutions)
    orbits = []  # (least conjugate, |orbit in S|, |Stab|)
    for one in list(unseen):
        if one not in unseen:
            continue
        conjugates = _slice_conjugates(one)
        in_slice = set(conjugates)
        if not in_slice <= unseen:
            missing = tuple(min(in_slice - unseen))
            raise RuntimeError(
                f"solution set for n={n} is not closed under relabeling: "
                f"{missing} is a conjugate of the solution {tuple(one)} but was not enumerated"
            )
        unseen -= in_slice
        least = min(in_slice)
        orbits.append((least, len(in_slice), _slice_conjugates(least).count(least)))
    assert sum(8 * n * n // stabilizer for _, _, stabilizer in orbits) == 2 * n * len(slice_solutions)
    records = []
    for key, members, stabilizer in sorted(orbits):
        assert 2 * n * members * stabilizer == 8 * n * n
        canon = tuple(key)
        rep = validate(Permutation(canon), n)
        records.append(
            CensusRecord(
                n=n,
                c=rep.region_count,
                genus=rep.genus(),
                canonical_form=canon,
                orbit_size_raw=2 * n * members,
                decomposable=rep.is_minimal() and bool(find_decompositions(rep)),
            )
        )
    return 2 * n * len(slice_solutions), records


@pytest.mark.parametrize(
    "n,single_cycle",
    [(n, False) for n in range(1, 7)] + [(n, True) for n in (1, 3, 5, 7)],
)
def test_orderly_census_matches_the_slice_sweep(n, single_cycle):
    assert census_records(n, single_cycle) == sweep_census(n, single_cycle)


def test_census_rejects_solutions_not_closed_under_relabeling():
    # drop each of the slice's solutions in turn from the sweep oracle; the
    # orderly census decides each solution alone and has no set to check
    reduced = slice_of(5, True)
    assert len(reduced) == 60
    for i in range(len(reduced)):
        kept = reduced[:i] + reduced[i + 1:]
        # an internal error, not a ValueError the CLI would report as bad input
        with pytest.raises(RuntimeError, match="not closed under relabeling") as info:
            sweep_census(5, True, kept)
        assert not isinstance(info.value, ValueError)


def test_census_search_calls_no_enumeration(monkeypatch):
    # the census builds no slice set: the orderly search decides each record
    def enumerate_all(*args, **kwargs):
        raise AssertionError("census_records enumerated the slice")

    monkeypatch.setattr(fillperm.census, "enumerate_filling", enumerate_all)
    total, records = census_records(5)
    assert (total, len(records)) == (600, 5)


@pytest.mark.parametrize(
    "n,single_cycle",
    [(n, False) for n in range(1, 6)] + [(5, True), (7, True)],
)
def test_orderly_search_keeps_the_least_slice_conjugates(n, single_cycle):
    # the search keeps sigma exactly when no slice conjugate is smaller, with
    # |Stab| the number equal to it, in increasing order
    expected = []
    for one in slice_of(n, single_cycle):
        conjugates = _slice_conjugates(one)
        if min(conjugates) == one:
            expected.append((one, conjugates.count(one)))
    assert fillperm.census._search(n, single_cycle) == expected


@pytest.mark.parametrize(
    "n,single_cycle",
    [(n, False) for n in range(1, 6)] + [(5, True), (7, True)],
)
def test_two_paths_below_sigma_2_doom_sigma(n, single_cycle):
    # the cut: the 2-path x -> sigma x -> sigma^2 x is the second image of the
    # slice conjugate by the cell (x, sigma x), so one below sigma(2) gives a
    # smaller conjugate; the cell of x = 1 is the identity
    table = _slice_table(n)
    cut = 0
    for one in slice_of(n, single_cycle):
        seconds = [table[x - 1][y][1][one[y - 1]] for x, y in enumerate(one, 1)]
        assert seconds[0] == one[1]
        assert seconds == [c[1] for c in _slice_conjugates(one)]
        if min(seconds) < one[1]:
            assert min(_slice_conjugates(one)) < one
            cut += 1
    assert cut or n < 3


@pytest.mark.parametrize("n", range(1, 64))
def test_root_block_holds_no_two_path(n):
    # the orderly root keeps the block of sigma(1) = 2.  At n >= 2 none of
    # its images is one of its labels, so it holds no 2-path of its own and
    # every 2-path placed by the time sigma(2) is runs through an arrow of
    # the block that places sigma(2); at n = 1 the root is that block.
    # Built uncached: 63 tables would stay alive otherwise.
    labels, arrows = _crossing_blocks.__wrapped__(n)[1][0]
    assert arrows[0] == (1, 2)
    assert labels == sum(1 << (x - 1) for x, _ in arrows)
    if n == 1:
        assert labels & 2
    else:
        assert not labels & 2
        assert not {f for _, f in arrows} & {e for e, _ in arrows}


def search_calls(n, single_cycle):
    """The calls of `_search`'s inner `search` in one run, cut ones
    included, counted by a profile hook on its code object."""
    (code,) = [
        c for c in fillperm.census._search.__code__.co_consts if getattr(c, "co_name", "") == "search"
    ]
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        fillperm.census._search(n, single_cycle)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize(
    "n,single_cycle,calls",
    [(5, True, 61), (7, True, 2_185), (4, False, 40), (5, False, 190), (6, False, 1_300)],
)
def test_orderly_search_node_counts(n, single_cycle, calls):
    # the cut's reach, pinned: a weaker cut visits more nodes
    assert search_calls(n, single_cycle) == calls


def full_sweep_census(n, single_cycle):
    """Oracle: the orbit sweep over the propagation oracle's solutions,
    conjugating one unclassified solution of each orbit by all 8n^2
    relabelings."""
    unseen = set(propagation_enumeration(n, single_cycle, slice_only=False))
    total = len(unseen)
    orbits = []
    while unseen:
        one = next(iter(unseen))
        orbit = {conjugate_oneline(one, t.one_line()) for t in twist_group(n)}
        assert orbit <= unseen
        unseen -= orbit
        orbits.append((min(orbit), len(orbit)))
    records = []
    for canon, size in sorted(orbits):
        rep = validate(Permutation(canon), n)
        records.append(
            CensusRecord(
                n=n,
                c=rep.region_count,
                genus=rep.genus(),
                canonical_form=canon,
                orbit_size_raw=size,
                decomposable=rep.is_minimal() and bool(find_decompositions(rep)),
            )
        )
    return total, records


@pytest.mark.parametrize(
    "n,single_cycle",
    [(n, False) for n in range(1, 7)] + [(5, True), (7, True)],
)
def test_slice_census_matches_full_sweep(n, single_cycle):
    assert census_records(n, single_cycle=single_cycle) == full_sweep_census(n, single_cycle)


@pytest.mark.parametrize(
    "n,single_cycle",
    [(n, False) for n in range(1, 7)] + [(n, True) for n in range(1, 6)],
)
def test_delta_saturation_of_slice_is_full_set(n, single_cycle):
    # saturated by the 2n relabelings that fix label 1: <delta, R>, where R
    # reverses the second curve
    full = enumerate_filling(n, single_cycle=single_cycle)
    reduced = slice_of(n, single_cycle)
    delta, r = generators(n)[1], _reverse_second(n)
    stabilizer = {(delta**k * h).one_line() for k in range(n) for h in (delta**0, r)}
    assert len(stabilizer) == 2 * n
    saturation = {conjugate_oneline(s, d) for s in reduced for d in stabilizer}
    assert saturation == set(map(tuple, full))
    assert len(full) == 2 * n * len(reduced) == len(set(full))
