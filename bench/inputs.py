"""Seeded inputs of the three workloads: profiles, rays and the CLI mix.

Every coefficient is printed into the source string with four decimals and
the bound b of the bounded families is computed from the printed values, so
the program and the oracles see the same profile.  The fast-decay profiles
and the spring profile of the fan do not depend on the seed: each carries a
fault that the benchmark keeps counting as failed, and the failed share must
not depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("linear", "spring", "inverse_power", "bounded_power", "generic", "fast_decay")

# Parameter ranges of each family, as drawn before printing.
RANGES = {
    "linear": {"c1": (0.5, 3.0), "c2": (0.3, 2.0)},
    "spring": {"c": (0.5, 3.0), "a": (0.4, 1.4)},
    "inverse_power": {"c1": (0.5, 2.0), "c2": (0.3, 1.5), "p": (1.0, 4.0)},
    "bounded_power": {"c1": (0.5, 3.0), "c2": (0.3, 2.0), "p": (1.5, 3.5)},
    "generic": {"a": (0.5, 1.5), "c": (1.0, 2.0)},
    "fast_decay": {"a": (0.5, 2.0), "c": (0.02, 0.2)},
}

DOSSIER_PER_FAMILY = 2      # profiles of each family in one dossier pass
DOSSIER_POINTS = 8          # curvature sample points per dossier operation
FAN_PER_FAMILY = 3          # seeded fan profiles of each family but spring
FAN_RAYS = 8                # rays per fan profile, angles 2*pi*k/FAN_RAYS
FAN_LENGTH = 8.0            # arc length of each fan ray
FAN_SPRING = {"c": 1.3, "a": 0.8}


@dataclass(frozen=True)
class ProfileCase:
    """One profile: family, printed parameters, source string and bound."""

    family: str
    params: dict
    source: str
    b: float
    points: tuple = field(default=(), compare=False)  # (u, v) interior samples


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def make_case(family: str, draws: dict) -> ProfileCase:
    """Print the draws into a source string; read the parameters back."""
    text = {k: _fmt(v) for k, v in draws.items()}
    params = {k: float(v) for k, v in text.items()}
    b = math.inf
    if family == "linear":
        source = f"{text['c1']} - {text['c2']}*t"
        b = params["c1"] / params["c2"]
    elif family == "spring":
        source = f"{text['c']}*exp(-{text['a']}*t)"
    elif family == "inverse_power":
        source = f"({text['c1']} + {text['c2']}*t)^(-{text['p']})"
    elif family == "bounded_power":
        source = f"({text['c1']} - {text['c2']}*t)^{text['p']}"
        b = params["c1"] / params["c2"]
    elif family == "generic":
        source = f"1/(1 + {text['a']}*t + {text['c']}*t^2)"
    elif family == "fast_decay":
        source = f"exp(-{text['a']}*t - {text['c']}*t^2)"
    else:
        raise ValueError(f"unknown family {family!r}")
    return ProfileCase(family, params, source, b)


def _draw(rng, family: str) -> dict:
    return {k: rng.uniform(lo, hi) for k, (lo, hi) in RANGES[family].items()}


def _fast_decay_draws(index: int) -> dict:
    # A Weyl sequence: no seed, and distinct to four decimals for every
    # index a run can reach.
    (a_lo, a_hi), (c_lo, c_hi) = RANGES["fast_decay"]["a"], RANGES["fast_decay"]["c"]
    frac_a = (index * 0.6180339887498949) % 1.0
    frac_c = (index * 0.41421356237309515) % 1.0
    return {"a": a_lo + (a_hi - a_lo) * frac_a, "c": c_lo + (c_hi - c_lo) * frac_c}


def interior_points(case: ProfileCase, rng, count: int) -> tuple:
    """Points (u, v) inside the slice, |v| below 0.9*sqrt(f(u^2))."""
    f = profile_value(case)
    u_max = 0.95 * math.sqrt(case.b) if math.isfinite(case.b) else 2.0
    points = []
    for _ in range(count):
        u = rng.uniform(-u_max, u_max)
        v = 0.9 * math.sqrt(f(u * u)) * rng.uniform(-1.0, 1.0)
        points.append((u, v))
    return tuple(points)


def profile_value(case: ProfileCase):
    """The closed form of f for a case, as a numpy-friendly function."""
    p = case.params
    family = case.family
    if family == "linear":
        return lambda t: p["c1"] - p["c2"] * t
    if family == "spring":
        return lambda t: p["c"] * np.exp(-p["a"] * t)
    if family == "inverse_power":
        return lambda t: (p["c1"] + p["c2"] * t) ** (-p["p"])
    if family == "bounded_power":
        return lambda t: (p["c1"] - p["c2"] * t) ** p["p"]
    if family == "generic":
        return lambda t: 1.0 / (1.0 + p["a"] * t + p["c"] * t * t)
    if family == "fast_decay":
        return lambda t: np.exp(-p["a"] * t - p["c"] * t * t)
    raise ValueError(f"unknown family {family!r}")


class DossierInputs:
    """Fresh profiles for every dossier pass, never repeating a source."""

    def __init__(self, seed: int):
        self.seed = seed
        self._seen: set[str] = set()
        self._fast_index = 0

    def next_pass(self, index: int) -> list[ProfileCase]:
        rng = np.random.default_rng((self.seed, index))
        cases = []
        for _ in range(DOSSIER_PER_FAMILY):
            for family in FAMILIES:
                while True:
                    if family == "fast_decay":
                        self._fast_index += 1
                        case = make_case(family, _fast_decay_draws(self._fast_index))
                    else:
                        case = make_case(family, _draw(rng, family))
                    if case.source not in self._seen:
                        break
                self._seen.add(case.source)
                points = interior_points(case, rng, DOSSIER_POINTS)
                cases.append(ProfileCase(case.family, case.params, case.source, case.b, points))
        return cases


def fan_cases(seed: int) -> list[ProfileCase]:
    """FAN_PER_FAMILY profiles of each of the first five families but spring,
    whose one profile is fixed."""
    rng = np.random.default_rng((seed, 0xFA))
    cases = [make_case("spring", FAN_SPRING)]
    for family in ("linear", "inverse_power", "bounded_power", "generic"):
        cases += [make_case(family, _draw(rng, family)) for _ in range(FAN_PER_FAMILY)]
    return cases


def fan_directions() -> list[tuple[float, float]]:
    """Unit directions at evenly spaced angles, the u-axis rays included."""
    return [
        (math.cos(2.0 * math.pi * k / FAN_RAYS), math.sin(2.0 * math.pi * k / FAN_RAYS))
        for k in range(FAN_RAYS)
    ]


def is_u_axis(direction) -> bool:
    return abs(direction[1]) < 1e-12


@dataclass(frozen=True)
class CliCommand:
    """One hartogs invocation of the mix."""

    command: str
    case: ProfileCase
    args: tuple = ()      # extra arguments after --F/--b
    csv_out: bool = False


CLI_LENGTH = 6.0


def cli_mix(seed: int) -> list[CliCommand]:
    """The fixed mix of all six commands over the first five families."""
    rng = np.random.default_rng((seed, 0xC1))
    cases = {family: make_case(family, _draw(rng, family)) for family in FAMILIES[:5]}
    length = ("--length", repr(CLI_LENGTH))
    return [
        CliCommand("validate", cases["generic"]),
        CliCommand("curvature", cases["inverse_power"], ("--points", "40", "--seed", str(seed))),
        CliCommand("geodesic", cases["spring"], ("--dir", "0.6,0.8") + length),
        CliCommand("geodesic", cases["linear"], ("--dir", "1j,0.5") + length),
        CliCommand("geodesic", cases["bounded_power"], ("--dir", "1,1") + length, csv_out=True),
        CliCommand("completeness", cases["inverse_power"]),
        CliCommand("einstein", cases["linear"]),
        CliCommand("classify", cases["bounded_power"]),
    ]
