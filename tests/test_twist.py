"""Relabeling group: generators, closed form, equivalence, canonical forms."""

from __future__ import annotations

import pytest

from fillperm import (
    GroupTooLarge,
    Permutation,
    are_equivalent,
    canonical_form,
    generators,
    is_valid,
    parse_cycles,
    twist_group,
    validate,
)


def test_generators_n1():
    kappa, delta, eta, mu = generators(1)
    assert kappa.is_identity()
    assert delta.is_identity()
    assert eta == parse_cycles("(1,3)", 4)
    assert mu == parse_cycles("(1,2)(3,4)", 4)


def test_generators_n6_kappa_delta():
    kappa, delta, _, _ = generators(6)
    assert kappa == parse_cycles("(1,3,5,7,9,11)(13,15,17,19,21,23)", 24)
    assert delta == parse_cycles("(2,4,6,8,10,12)(14,16,18,20,22,24)", 24)


def test_eta_matches_plain_bar_swap_for_tiny_n():
    # for n <= 2 orientation reversal degenerates to the bar swap
    assert generators(1)[2] == parse_cycles("(1,3)", 4)
    assert generators(2)[2] == parse_cycles("(1,5)(3,7)", 8)


def test_eta_reverses_arc_order():
    # reversing the first curve renumbers arc i to 2-i mod n
    eta = generators(6)[2]
    assert eta == parse_cycles("(1,13)(3,23)(5,21)(7,19)(9,17)(11,15)", 24)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
def test_involutions(n):
    _, _, eta, mu = generators(n)
    assert (eta * eta).is_identity()
    assert (mu * mu).is_identity()
    if n > 1:
        assert eta.order() == 2
        assert mu.order() == 2


def test_twist_group_n1_contains_expected():
    group = twist_group(1)
    assert parse_cycles("(1,3)", 4) in group
    assert parse_cycles("(2,4)", 4) in group
    assert parse_cycles("(1,2)(3,4)", 4) in group


def _closure_search(n):
    """Breadth-first closure of the four generators: the reference the closed
    form is checked against."""
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
        frontier = new
    return sorted(seen)


@pytest.mark.parametrize("n", range(1, 12))
def test_twist_group_matches_closure_search(n):
    group = twist_group(n)
    assert [t.one_line() for t in group] == _closure_search(n)
    assert len(group) == 8 * n * n


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_twist_group_closure_properties(n):
    group = twist_group(n)
    elements = set(group)
    assert Permutation.identity(4 * n) in elements
    for g in generators(n):
        assert g in elements
    # closed under inverse and sampled products
    for t in group:
        assert t.inverse() in elements
    sample = group[:: max(1, len(group) // 12)]
    for t1 in sample:
        for t2 in sample:
            assert t1 * t2 in elements


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_twist_group_order(n):
    # two independent label cyclings, two orientation flips, one curve swap
    assert len(twist_group(n)) == 8 * n * n


@pytest.mark.parametrize("n", [2, 5, 6])
def test_elements_preserve_or_swap_parity_classes(n):
    for t in twist_group(n):
        parities = {(e % 2, t(e) % 2) for e in range(1, 4 * n + 1)}
        assert parities in (
            {(0, 0), (1, 1)},  # preserves curve roles
            {(0, 1), (1, 0)},  # swaps curve roles
        )


def test_bound_checks(zeta):
    with pytest.raises(GroupTooLarge):
        twist_group(17)
    with pytest.raises(GroupTooLarge):
        twist_group(6, max_n=5)
    with pytest.raises(GroupTooLarge):
        canonical_form(zeta, max_n=3)
    with pytest.raises(GroupTooLarge):
        are_equivalent(zeta, zeta, max_n=3)


def test_conjugation_preserves_validity_full_group(zeta, sigma_f, f1):
    for fp in (f1, sigma_f, zeta):
        for t in twist_group(fp.n):
            assert is_valid(fp.sigma.conjugated_by(t), fp.n)


def test_are_equivalent_reflexive(zeta):
    witness = are_equivalent(zeta, zeta)
    assert witness is not None
    assert zeta.sigma.conjugated_by(witness) == zeta.sigma


def test_are_equivalent_f1_pair(f1):
    other = validate(parse_cycles("(1,4,3,2)", 4), 1)
    witness = are_equivalent(f1, other)
    assert witness is not None
    assert f1.sigma.conjugated_by(witness) == other.sigma


def test_are_equivalent_zeta_pair(zeta, zeta_prime):
    assert are_equivalent(zeta, zeta_prime) is None


def test_are_equivalent_size_mismatch(zeta, f1):
    with pytest.raises(ValueError):
        are_equivalent(zeta, f1)


def test_are_equivalent_symmetric_transitive(sigma_f):
    # conjugates of a fixture give a ready-made equivalence class
    group = twist_group(5)
    others = [
        validate(sigma_f.sigma.conjugated_by(t), 5)
        for t in group[:: len(group) // 4]
    ]
    for other in others:
        w1 = are_equivalent(sigma_f, other)
        w2 = are_equivalent(other, sigma_f)
        assert w1 is not None and w2 is not None
    assert are_equivalent(others[0], others[-1]) is not None


def test_canonical_form_constant_on_orbit(f1, zeta, zeta_prime):
    other = validate(parse_cycles("(1,4,3,2)", 4), 1)
    assert canonical_form(f1) == canonical_form(other)
    assert canonical_form(zeta) != canonical_form(zeta_prime)


def test_canonical_form_idempotent_and_valid(zeta, sigma_f):
    for fp in (zeta, sigma_f):
        canon = canonical_form(fp)
        wrapped = validate(canon, fp.n)
        assert wrapped.region_count == fp.region_count
        assert canonical_form(wrapped) == canon
