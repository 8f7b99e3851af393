"""Exact covering-genus arithmetic for tame prime-power group actions.

The basic identity is the Hurwitz genus formula for a group G acting on a
curve of genus g with quotient genus gbar and short orbits of sizes l_i:

    2g - 2 = |G| (2 gbar - 2) + sum_i (|G| - l_i).

Everything is integer or Fraction arithmetic; no floats.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import ZomoError


class ProfileError(ZomoError, ValueError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _dpower_divisors(n, d):
    """Powers of d properly dividing n, ascending (1, d, ..., n/d)."""
    out = []
    k = 1
    while k < n:
        out.append(k)
        k *= d
    return out


@dataclass(frozen=True)
class RamificationProfile:
    group_order: int
    quotient_genus: int
    orbit_sizes: tuple = ()

    def __post_init__(self):
        if self.group_order < 1:
            raise ProfileError("group order must be positive")
        if self.quotient_genus < 0:
            raise ProfileError("quotient genus must be nonnegative")
        sizes = tuple(self.orbit_sizes)
        if list(sizes) != sorted(sizes):
            raise ProfileError("orbit sizes must be sorted ascending")
        for l in sizes:
            if l < 1 or l >= self.group_order or self.group_order % l != 0:
                raise ProfileError(
                    "short-orbit size %d must properly divide %d"
                    % (l, self.group_order))
        object.__setattr__(self, "orbit_sizes", sizes)


def rh_genus(profile: RamificationProfile):
    """Genus of the covering curve; raises on non-integral or negative g."""
    n = profile.group_order
    two_g_minus_2 = (n * (2 * profile.quotient_genus - 2)
                     + sum(n - l for l in profile.orbit_sizes))
    g = Fraction(two_g_minus_2 + 2, 2)
    if g.denominator != 1 or g < 0:
        raise ProfileError("inconsistent profile: genus %s" % g)
    return int(g)


@dataclass(frozen=True)
class BoundQuery:
    d: int
    genus: int
    elliptic_quotient: bool = False

    def __post_init__(self):
        if not _is_prime(self.d) or self.d == 2:
            raise ProfileError("d must be an odd prime")
        if self.genus < 2:
            raise ProfileError("genus must be at least 2")


@dataclass(frozen=True)
class BoundResult:
    bound: int                 # floor of the rational bound
    largest_power: int         # largest power of d not exceeding the bound
    equality_inadmissible: bool  # a d-group of the full bound order cannot occur


def zomorrodian_bound(q: BoundQuery) -> BoundResult:
    """Order bound for a d-subgroup of automorphisms at genus g.

    The generic bound is 9(g-1) for d = 3 and 2d/(d-3) (g-1) for d > 3.
    With elliptic_quotient set, the variant 2d/(d-1) (g-1) is used instead,
    which applies to non-abelian d-groups having a central order-d subgroup
    with elliptic quotient (for d = 3 the order 9(g-1) is then the single
    exception, which is exactly the extremal case).
    """
    g1 = q.genus - 1
    if q.elliptic_quotient:
        exact = Fraction(2 * q.d, q.d - 1) * g1
    elif q.d == 3:
        exact = Fraction(9 * g1)
    else:
        exact = Fraction(2 * q.d, q.d - 3) * g1
    bound = exact.numerator // exact.denominator
    power = 1
    while power * q.d <= bound:
        power *= q.d
    # at the d=3 bound, equality forces a non-abelian group and genus != 2
    inadmissible = (q.d == 3 and not q.elliptic_quotient and q.genus == 2)
    return BoundResult(bound, power, inadmissible)


def enumerate_profiles(d, group_order, genus):
    """All ramification profiles of a d-group action producing the genus.

    Orbit sizes run over d-power proper divisors of the group order; the
    orbit count s and the quotient genus are capped by the exact closed
    forms that the genus formula forces.
    """
    n = group_order
    if n < 1 or not _is_prime(d):
        raise ProfileError("need a prime d and positive group order")
    m = n
    while m % d == 0:
        m //= d
    if m != 1:
        raise ProfileError("group order must be a power of %d" % d)
    target = 2 * genus - 2
    divisors = _dpower_divisors(n, d)
    if not divisors:
        return [RamificationProfile(n, genus)] if n == 1 and genus >= 0 else []
    min_contrib = n - max(divisors)     # smallest per-orbit contribution
    s_cap = (target + 2 * n) // min_contrib if min_contrib > 0 else 0
    gbar_cap = (target + 2 * n) // (2 * n) + 1
    out = []
    for gbar in range(gbar_cap + 1):
        base = n * (2 * gbar - 2)
        if base > target:
            break
        rem = target - base

        # multisets of short-orbit sizes whose contributions n - l sum to rem
        def rec(idx, left, budget, acc):
            if left == 0:
                out.append(RamificationProfile(n, gbar, tuple(sorted(acc))))
                return
            if idx == len(divisors) or budget == 0:
                return
            l = divisors[idx]
            contrib = n - l
            for cnt in range(min(budget, left // contrib) + 1):
                rec(idx + 1, left - cnt * contrib, budget - cnt,
                    acc + [l] * cnt)

        rec(0, rem, s_cap, [])
    out.sort(key=lambda p: (p.quotient_genus, p.orbit_sizes))
    return out


def is_extremal(genus, order):
    """(flag, h): genus = 3^h + 1 and order = 3^(h+2) for some h >= 1."""
    g1 = genus - 1
    h = 0
    while g1 % 3 == 0:
        g1 //= 3
        h += 1
    if g1 != 1 or h < 1 or order != 3 ** (h + 2):
        return False, None
    return True, h


def abelian_bound_check(genus, order):
    """Whether the order is admissible for an abelian automorphism group."""
    if genus < 2:
        raise ProfileError("genus must be at least 2")
    return order <= 4 * genus + 4
