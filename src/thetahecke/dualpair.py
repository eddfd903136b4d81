"""Bookkeeping for the five families of dimension towers behind the
correspondence: parameter ranges, the flip's parameter of a tower pair,
first-occurrence indices, and the conservation identity.

Everything is exact integer / Fraction arithmetic.  No Hecke algebra or
group computation happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import VerificationError
from .bipartition import check_partition, r1, theta_lift
from .laurent import HalfInt, format_half


# -- cases and towers ----------------------------------------------------------


@dataclass(frozen=True)
class DualPairCase:
    """One of the five tower families.

    parity0 / parity_p constrain dimV0 / dimVp0 mod 2 (None = unconstrained).
    chi_is_xi marks the one family whose twisting character is a genuine
    quadratic character, so chi(-1) must be supplied rather than assumed.
    """

    tag: str
    delta: int
    delta_prime: int
    parity0: int | None
    parity_p: int | None
    chi_is_xi: bool


CASES = {
    "A": DualPairCase("A", 1, 1, None, None, False),
    "B": DualPairCase("B", 0, 2, 1, 0, False),
    "C": DualPairCase("C", 2, 0, 0, 0, False),
    "Ct": DualPairCase("Ct", 2, 0, 0, 1, True),
    "D": DualPairCase("D", 0, 2, 0, 0, False),
}

if any(c.delta + c.delta_prime != 2 for c in CASES.values()):
    raise VerificationError("every case needs delta + delta' = 2")


def get_case(case) -> DualPairCase:
    if isinstance(case, DualPairCase):
        return case
    try:
        return CASES[case]
    except KeyError:
        raise ValueError(f"unknown case tag {case!r}; expected one of {sorted(CASES)}") from None


def mu_range_check(case, mu) -> bool:
    """Whether mu lies in the parameter range of the given case.  A tower
    pair has mu = dimVp0 - dimV0 - delta/2, so x = mu + delta/2 is an integer,
    and x = parity_p - parity0 mod 2 where both parities are set: strict
    half-integers for A, odd integers for B and C, even for Ct and D."""
    case = get_case(case)
    x = Fraction(mu) + Fraction(case.delta, 2)
    if x.denominator != 1:
        return False
    if case.parity0 is None or case.parity_p is None:
        return True
    return (x - case.parity_p + case.parity0) % 2 == 0


class TowerConfig:
    """A compatible pair of companion towers over a fixed base space.

    dimV0 is the base dimension, dimVp0 the first member of the chosen
    companion tower; the first member of the other companion tower is then
    forced: dimVp0 + dimVt0 = 2*dimV0 + delta.
    """

    def __init__(self, case, dimV0: int, dimVp0: int, chi_minus_one: int | None = None):
        case = get_case(case)
        if dimV0 < 0 or dimVp0 < 0:
            raise ValueError("dimensions must be nonnegative")
        if case.parity0 is not None and dimV0 % 2 != case.parity0:
            raise ValueError(f"case {case.tag}: dimV0 must be {'odd' if case.parity0 else 'even'}")
        if case.parity_p is not None and dimVp0 % 2 != case.parity_p:
            raise ValueError(f"case {case.tag}: dimVp0 must be {'odd' if case.parity_p else 'even'}")
        dimVt0 = 2 * dimV0 + case.delta - dimVp0
        if dimVt0 < 0:
            raise ValueError("companion tower would start at negative dimension")
        if case.chi_is_xi:
            if chi_minus_one not in (1, -1):
                raise ValueError(f"case {case.tag} requires chi_minus_one = +1 or -1")
        elif chi_minus_one is None:
            chi_minus_one = 1
        if chi_minus_one not in (1, -1):
            raise ValueError("chi_minus_one must be +1 or -1")
        self.case = case
        self.dimV0 = dimV0
        self.dimVp0 = dimVp0
        self.dimVt0 = dimVt0
        self.chi_minus_one = chi_minus_one

    def __repr__(self):
        return f"TowerConfig({self.case.tag}, dimV0={self.dimV0}, dimVp0={self.dimVp0})"


# -- the normalization parameter -----------------------------------------------


def mu_of(cfg: TowerConfig) -> HalfInt:
    """Exponent parameter of the flip generator for this tower pair."""
    mu = Fraction(cfg.dimVp0 - cfg.dimV0) - Fraction(cfg.case.delta, 2)
    if not mu_range_check(cfg.case, mu):
        raise VerificationError(f"{cfg} gives mu={format_half(mu)}, out of range for its case")
    return mu


def mu_sigma(n, ntilde) -> HalfInt:
    """Parameter read off from a pair of first-occurrence dimensions."""
    return Fraction(n - ntilde, 2)


# -- first occurrence and conservation ------------------------------------------


def first_occurrence(alpha, beta, l: int, cfg: TowerConfig, searches: dict | None = None) -> dict:
    """First-occurrence dimensions of the (alpha, beta)-labeled
    representation of the rank-l group in both companion towers, plus the
    degree-drop index c.

    The closed forms are cross-checked against a direct search along the
    tower (least rank with a nonzero lift; the companion side uses the
    label with the two slots exchanged), each search run once per key
    (alpha, beta, l) of searches: a scan passes one dict to all its labels,
    so label (alpha, beta)'s companion search is label (beta, alpha)'s.
    """
    alpha = check_partition(alpha)
    beta = check_partition(beta)
    if sum(alpha) + sum(beta) != l:
        raise ValueError("label size must equal the rank")
    steps = l - r1(beta)
    steps_t = l - r1(alpha)
    searches = {} if searches is None else searches
    for key in ((alpha, beta, l), (beta, alpha, l)):
        if key not in searches:
            # the search ends by lp = l, where the k = l term lifts (alpha, beta) to (beta, alpha)
            searches[key] = next(lp for lp in range(l + 1) if theta_lift(*key, lp))
    least, least_t = searches[alpha, beta, l], searches[beta, alpha, l]
    if (least, least_t) != (steps, steps_t):
        raise VerificationError(
            f"first occurrence of ({list(alpha)}, {list(beta)}) at rank {l}: closed form "
            f"{(steps, steps_t)} disagrees with the tower search {(least, least_t)}"
        )
    return {
        "n": cfg.dimVp0 + 2 * steps,
        "n_tilde": cfg.dimVt0 + 2 * steps_t,
        "c": r1(alpha) + r1(beta),
    }


def conservation_check(alpha, beta, l: int, cfg: TowerConfig, searches: dict | None = None) -> dict:
    """Evaluate both weightings of the degree-drop index against the
    dimension budget 2*dimV_l + delta; searches goes to first_occurrence.

    The variant counting c twice should vanish identically; its residual
    is reported, not assumed, next to that of the single-c variant.
    """
    occ = first_occurrence(alpha, beta, l, cfg, searches)
    rhs = 2 * (cfg.dimV0 + 2 * l) + cfg.case.delta
    one_c = occ["n"] + occ["n_tilde"] + occ["c"]
    two_c = occ["n"] + occ["n_tilde"] + 2 * occ["c"]
    return {
        "n": occ["n"],
        "n_tilde": occ["n_tilde"],
        "c": occ["c"],
        "rhs": rhs,
        "residual_double_c": two_c - rhs,
        "residual_single_c": one_c - rhs,
    }
