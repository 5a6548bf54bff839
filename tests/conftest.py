"""Shared fixtures: the profile family battery and sampling helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from hartogs import Profile, parse_profile
from hartogs.metric import SlicePoint


@dataclass(frozen=True)
class Family:
    """A profile drawn from one of the built-in families."""

    name: str
    profile: Profile
    u_window: float  # half-width of the u sampling window (inside sqrt(b))
    params: dict


def make_linear(rng, n=2) -> Family:
    c1 = rng.uniform(0.5, 4.0)
    c2 = rng.uniform(0.3, 3.0)
    b = c1 / c2
    profile = parse_profile(f"{c1!r} - {c2!r}*t", b, n)
    return Family("linear", profile, 0.9 * math.sqrt(b), {"c1": c1, "c2": c2})


def make_spring(rng, n=2) -> Family:
    c = rng.uniform(0.5, 3.0)
    k = rng.uniform(0.3, 2.5)
    profile = parse_profile(f"{c!r}*exp(-{k!r}*t)", math.inf, n)
    return Family("spring", profile, 2.0, {"c": c, "k": k})


def make_power_pos(rng, n=2) -> Family:
    c1 = rng.uniform(0.5, 2.0)
    c2 = rng.uniform(0.3, 2.0)
    p = rng.uniform(0.5, 4.0)
    profile = parse_profile(f"({c1!r} + {c2!r}*t)^(-{p!r})", math.inf, n)
    return Family("power_pos", profile, 2.0, {"c1": c1, "c2": c2, "p": p})


def make_power_neg(rng, n=2) -> Family:
    c1 = rng.uniform(0.8, 2.0)
    a = rng.uniform(0.3, 1.5)
    q = rng.uniform(1.5, 3.0)
    b = c1 / a
    profile = parse_profile(f"({c1!r} - {a!r}*t)^{q!r}", b, n)
    return Family(
        "power_neg", profile, 0.9 * math.sqrt(b), {"c1": c1, "c2": -a, "q": q}
    )


FAMILY_MAKERS = (make_linear, make_spring, make_power_pos, make_power_neg)

# (a, c) of fast-decay profiles exp(-a*t - c*t^2): f underflows far out on
# the grid, while kcond = -a - 4*c*t stays tame
FAST_DECAY = [(0.5, 0.02), (0.5, 0.2), (2.0, 0.02), (2.0, 0.2), (1.2, 0.08)]


@pytest.fixture(scope="session")
def battery() -> list[Family]:
    """One seeded draw per family."""
    rng = np.random.default_rng(20240517)
    return [maker(rng) for maker in FAMILY_MAKERS]


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)


def scaled(profile: Profile, mu2: float) -> Profile:
    """mu2 * F on the same bound: (z0, z) -> (z0, mu*z) maps D_F onto its
    domain and shifts the Kahler potential by a constant, an isometry."""
    return parse_profile(f"{mu2!r}*({profile.source})", profile.b, profile.n)


def random_slice_points(
    family: Family, count: int, rng: np.random.Generator, v_frac: float = 0.9
) -> list[SlicePoint]:
    """Random points strictly inside the slice, away from the boundary."""
    profile = family.profile
    points = []
    while len(points) < count:
        u = rng.uniform(-family.u_window, family.u_window)
        v_cap = v_frac * math.sqrt(profile.f(u * u))
        points.append(SlicePoint(u, rng.uniform(-v_cap, v_cap)))
    return points


def fd1(fn, x: float, h: float) -> float:
    """Five-point central first derivative."""
    return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12 * h)


def fd2(fn, x: float, h: float) -> float:
    """Five-point central second derivative."""
    return (
        -fn(x - 2 * h) + 16 * fn(x - h) - 30 * fn(x) + 16 * fn(x + h) - fn(x + 2 * h)
    ) / (12 * h * h)
