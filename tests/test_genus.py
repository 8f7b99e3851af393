import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import profiles_by_brute_force, profiles_by_search
from zomo.genus import (BoundQuery, ProfileError, RamificationProfile,
                        enumerate_profiles, is_extremal, rh_genus,
                        split_power, zomorrodian_bound)


def test_rh_genus_oracles():
    assert rh_genus(RamificationProfile(81, 0, (9, 27, 27))) == 10
    assert rh_genus(RamificationProfile(729, 0, (81, 243, 243))) == 82
    assert rh_genus(RamificationProfile(243, 0, (27, 81, 81))) == 28
    # unramified covers multiply genus minus one
    assert rh_genus(RamificationProfile(3, 2)) == 4
    # trivial group, no ramification: genus unchanged
    assert rh_genus(RamificationProfile(1, 5)) == 5


def test_rh_genus_rejects_inconsistent():
    with pytest.raises(ProfileError):
        rh_genus(RamificationProfile(3, 0, (1,)))  # genus -1/2... non-integral
    with pytest.raises(ProfileError):
        RamificationProfile(9, 0, (2,))  # 2 does not divide 9


@pytest.mark.parametrize("bad", [5, 81])
def test_profile_rejects_one_bad_size_among_many_repeated(bad):
    sizes = sorted((3,) * 500 + (9,) * 500 + (27,) * 500 + (bad,))
    with pytest.raises(ProfileError, match="size %d must properly divide"
                       % bad):
        RamificationProfile(81, 0, tuple(sizes))


@given(st.sampled_from([3, 5, 7]), st.integers(0, 40),
       st.integers(1, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_split_power(d, k, m):
    m = m * d + 1 if m % d == 0 else m  # prime to d
    assert split_power(d ** k * m, d) == (k, m)


@pytest.mark.parametrize("n, d", [(0, 3), (-9, 3), (9, 1)])
def test_split_power_rejects_what_has_no_split(n, d):
    with pytest.raises(ProfileError):
        split_power(n, d)


def test_bound_oracles():
    res = zomorrodian_bound(BoundQuery(3, 10))
    assert res.bound == 81 and res.largest_power == 81
    res = zomorrodian_bound(BoundQuery(3, 28))
    assert res.bound == 243
    res = zomorrodian_bound(BoundQuery(3, 82))
    assert res.bound == 729
    # d = 5: 2d/(d-3) (g-1) = 5(g-1)
    assert zomorrodian_bound(BoundQuery(5, 11)).bound == 50
    # elliptic-quotient variant 2d/(d-1)
    assert zomorrodian_bound(BoundQuery(3, 10, elliptic_quotient=True)).bound \
        == 27


def test_bound_rejects_bad_input():
    with pytest.raises(ProfileError):
        BoundQuery(2, 10)
    with pytest.raises(ProfileError):
        BoundQuery(4, 10)
    with pytest.raises(ProfileError):
        BoundQuery(3, 1)


def test_profile_uniqueness_extremal():
    for h in (2, 3, 4):
        order = 3 ** (h + 2)
        genus = 3 ** h + 1
        profs = [p for p in enumerate_profiles(3, order, genus)
                 if p.quotient_genus == 0]
        assert len(profs) == 1
        assert profs[0].orbit_sizes == (order // 9, order // 3, order // 3)


def test_enumerate_profiles_all_reproduce_genus():
    for p in enumerate_profiles(3, 81, 10):
        assert rh_genus(p) == 10


@pytest.mark.parametrize("d", [3, 5])
def test_enumerate_profiles_matches_brute_force(d):
    """Orders d^0..d^4, genus 0..12: the trivial group, genus 0 and 1 and
    every short-orbit multiset included."""
    for k in range(5):
        for genus in range(13):
            assert (enumerate_profiles(d, d ** k, genus)
                    == profiles_by_brute_force(d, d ** k, genus))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_enumerate_profiles_matches_the_search_of_every_count(d):
    """The same profiles in the same order as trying every count of the
    last orbit size, for the orders d^k up to 3^6 and genus 0..60."""
    k = 0
    while d ** k <= 3 ** 6:
        for genus in range(61):
            assert (enumerate_profiles(d, d ** k, genus)
                    == profiles_by_search(d, d ** k, genus))
        k += 1


def test_enumerate_profiles_matches_the_search_at_genus_1000():
    got = enumerate_profiles(3, 9, 1000)
    assert len(got) == 4817
    assert got == profiles_by_search(3, 9, 1000)


def test_is_extremal():
    assert is_extremal(10, 81) == (True, 2)
    assert is_extremal(28, 243) == (True, 3)
    assert is_extremal(82, 729) == (True, 4)
    assert is_extremal(10, 243) == (False, None)
    assert is_extremal(11, 81) == (False, None)


@pytest.mark.parametrize("genus", [1, 0, -2])
def test_is_extremal_below_genus_2(genus):
    assert is_extremal(genus, 27) == (False, None)


@pytest.mark.parametrize("genus", [-1, -5])
def test_enumerate_profiles_rejects_negative_genus(genus):
    with pytest.raises(ProfileError, match="genus must be nonnegative"):
        enumerate_profiles(3, 9, genus)


@given(st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_profiles_sorted_and_consistent(hpow):
    order = 3 ** hpow
    for genus in range(2, 30):
        profs = enumerate_profiles(3, order, genus)
        seen = set()
        for p in profs:
            key = (p.quotient_genus, p.orbit_sizes)
            assert key not in seen  # no duplicates
            seen.add(key)
            assert rh_genus(p) == genus
            assert all(order % l == 0 and l < order for l in p.orbit_sizes)
