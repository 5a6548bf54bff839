"""Expected values computed from each family's closed form, apart from the
package: nothing here imports hartogs.

Every check returns a list of (code, message) pairs, empty when the output
agrees with the oracle.  The codes let the workloads tell a known fault of
the program from an unexpected disagreement.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import ProfileCase, profile_value

COMPLETE = {"linear": True, "spring": True, "inverse_power": False,
            "bounded_power": True, "generic": False, "fast_decay": True}
FAMILY_NAME = {"linear": "hyperbolic", "spring": "spring",
               "inverse_power": "power_positive_curvature",
               "bounded_power": "power_negative_curvature",
               "generic": "generic", "fast_decay": "generic"}

PARAM_RTOL = 1e-6
VALUE_RTOL = 1e-6
CURVATURE_TOL = 1e-6
ENERGY_TOL = 1e-6
LENGTH_TOL = 1e-9
CHORD_TOL = 5e-8
DISTANCE_TOL = 1e-8

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def density_squared(case: ProfileCase):
    """-(t f'/f)' in closed form, the square of the completeness density."""
    p = case.params
    family = case.family
    if family == "linear":
        return lambda t: p["c1"] * p["c2"] / (p["c1"] - p["c2"] * t) ** 2
    if family == "spring":
        return lambda t: p["a"] + 0.0 * t
    if family == "inverse_power":
        return lambda t: p["p"] * p["c1"] * p["c2"] / (p["c1"] + p["c2"] * t) ** 2
    if family == "bounded_power":
        return lambda t: p["p"] * p["c1"] * p["c2"] / (p["c1"] - p["c2"] * t) ** 2
    if family == "generic":
        a, c = p["a"], p["c"]
        return lambda t: (a + 4.0 * c * t + a * c * t * t) / (1.0 + a * t + c * t * t) ** 2
    if family == "fast_decay":
        return lambda t: p["a"] + 4.0 * p["c"] * t
    raise ValueError(f"unknown family {family!r}")


def _gauss_legendre(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre integral of fn over each [lo_k, hi_k]."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    return half * (fn(nodes) @ _GL_W)


def psi(case: ProfileCase, u) -> np.ndarray:
    """psi(u) = integral_0^u sqrt(-(t f'/f)'(s^2)) ds, odd in u.

    The sorted |u| split [0, max|u|] into panels; each panel gets its own
    Gauss-Legendre rule and the cumulative sum gives psi at every |u|.
    """
    u = np.asarray(u, dtype=float)
    dens = density_squared(case)
    grid = np.unique(np.concatenate(([0.0], np.abs(u).ravel())))
    panels = _gauss_legendre(lambda s: np.sqrt(dens(s * s)), grid[:-1], grid[1:])
    cumulative = np.concatenate(([0.0], np.cumsum(panels)))
    return np.sign(u) * cumulative[np.searchsorted(grid, np.abs(u))]


def psi_limit(case: ProfileCase) -> float:
    """psi at the end of the u-axis: finite exactly on incomplete domains."""
    if COMPLETE[case.family]:
        return math.inf
    if case.family == "inverse_power":
        return 0.5 * math.pi * math.sqrt(case.params["p"])
    # u = tan(theta) maps [0, inf) onto [0, pi/2); the mapped integrand is
    # bounded because the density decays like 1/u^2.
    dens = density_squared(case)
    edges = np.linspace(0.0, 0.5 * math.pi, 65)
    mapped = lambda th: np.sqrt(dens(np.tan(th) ** 2)) / np.cos(th) ** 2
    return float(np.sum(_gauss_legendre(mapped, edges[:-1], edges[1:])))


def klein_image(case: ProfileCase, u, v):
    """Psi(u, v) = (tanh psi(u), v / (cosh psi(u) sqrt f(u^2)))."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    p = psi(case, u)
    f = profile_value(case)(u * u)
    return np.tanh(p), v / (np.cosh(p) * np.sqrt(f))


def _rel_close(actual, expected, rtol) -> bool:
    try:
        actual = float(actual)
    except (TypeError, ValueError):
        return False
    if math.isinf(expected):
        return actual == expected
    return abs(actual - expected) <= rtol * max(abs(expected), 1e-300)


def expected_params(case: ProfileCase) -> dict:
    """Parameters that classify_profile reports for each family."""
    p = case.params
    if case.family == "linear":
        return {"c1": p["c1"], "c2": p["c2"]}
    if case.family == "spring":
        return {"c": p["c"], "k": p["a"]}
    if case.family == "inverse_power":
        return {"c1": p["c1"], "c2": p["c2"], "K0": 2.0 / p["p"]}
    if case.family == "bounded_power":
        # reported as (c1 + c2*t)^p with a negative c2
        return {"c1": p["c1"], "c2": -p["c2"], "K0": -2.0 / p["p"]}
    return {}


def check_classification(case, family: str, params: dict) -> list:
    errors = []
    if family != FAMILY_NAME[case.family]:
        errors.append(("family", f"family {family!r}, expected {FAMILY_NAME[case.family]!r}"))
        return errors
    for key, want in expected_params(case).items():
        if not _rel_close(params.get(key), want, PARAM_RTOL):
            errors.append(("params", f"{key}={params.get(key)!r}, expected {want!r}"))
    return errors


def check_completeness(case, verdict: str, value) -> list:
    want = "complete" if COMPLETE[case.family] else "incomplete"
    if verdict != want:
        return [("completeness", f"verdict {verdict!r}, expected {want!r}")]
    if not _rel_close(value, psi_limit(case), VALUE_RTOL):
        return [("completeness_value", f"value {value!r}, expected {psi_limit(case)!r}")]
    return []


def check_einstein(case, is_einstein: bool) -> list:
    want = case.family == "linear"
    if bool(is_einstein) != want:
        return [("einstein", f"is_einstein {is_einstein!r}, expected {want!r}")]
    return []


def check_curvature(case, samples) -> list:
    """samples: iterable of (u, v, K); points inside the slice, K = -1/2."""
    f = profile_value(case)
    errors = []
    for u, v, k in samples:
        t = u * u
        if not (t < case.b and v * v < f(t)):
            errors.append(("curvature_point", f"({u}, {v}) outside the slice"))
        if not abs(k + 0.5) <= CURVATURE_TOL:
            errors.append(("curvature", f"K={k!r} at ({u}, {v})"))
    return errors


def check_dossier(case, out: dict) -> list:
    """Check one dossier operation's outputs against the closed forms."""
    errors = []
    if out["valid"] is not True:
        errors.append(("valid", "validate reported the profile invalid"))
    errors += check_classification(case, out["family"], out["params"])
    errors += check_completeness(case, out["verdict"], out["integral_value"])
    errors += check_einstein(case, out["is_einstein"])
    errors += check_curvature(case, out["curvature"])
    return errors


def check_trace(case, direction, length: float, s, u, v, energies,
                screen_passed: bool, boundary_hit: bool) -> list:
    """Check an origin geodesic through the Beltrami-Klein isometry.

    The images of the samples lie on the chord through the origin in the
    image direction of the initial tangent, and sqrt(2)*artanh|Psi| is the
    arc length.
    """
    s = np.asarray(s, dtype=float)
    errors = []
    drift = float(np.max(np.abs(np.asarray(energies) - 1.0)))
    if not drift <= ENERGY_TOL:
        errors.append(("energy", f"energy drift {drift:.3e}"))
    if not screen_passed:
        errors.append(("screen", "self-intersection screen failed"))
    reached = abs(s[-1] - length) <= LENGTH_TOL * length and not boundary_hit
    if COMPLETE[case.family] and not reached:
        errors.append(("full_length", f"stopped at s={s[-1]:.6f} of {length}"))
    x, y = klein_image(case, u, v)
    du, dv = direction
    f0 = float(profile_value(case)(0.0))
    nx, ny = math.sqrt(density_squared(case)(0.0)) * du, dv / math.sqrt(f0)
    norm = math.hypot(nx, ny)
    nx, ny = nx / norm, ny / norm
    off_chord = float(np.max(np.abs(x * ny - y * nx)))
    if not off_chord <= CHORD_TOL:
        errors.append(("chord", f"images leave the chord by {off_chord:.3e}"))
    if not float(np.min(x * nx + y * ny)) >= -CHORD_TOL:
        errors.append(("chord", "images cross to the opposite ray"))
    # artanh magnifies an error in |Psi| by cosh^2(s/sqrt 2) near the rim,
    # so the tolerance on the distance grows by the same factor.
    distance = math.sqrt(2.0) * np.arctanh(np.minimum(np.hypot(x, y), 1.0))
    miss = float(np.max(np.abs(distance - s) / np.cosh(s / math.sqrt(2.0)) ** 2))
    if not miss <= DISTANCE_TOL:
        errors.append(("distance", f"Klein distance misses s by {miss:.3e} cosh^2(s/sqrt 2)"))
    return errors


def _report(stdout: str):
    try:
        return json.loads(stdout)["report"]
    except (ValueError, KeyError, TypeError):
        return None


def check_cli(cmd, code: int, stdout: str, csv_rows) -> list:
    """Check one hartogs process: exit code, JSON fields, CSV trace."""
    case = cmd.case
    if code != 0:
        return [("exit", f"exit code {code}, expected 0")]
    report = _report(stdout)
    if report is None:
        return [("json", "stdout is not a hartogs JSON report")]
    if cmd.command == "validate":
        return [] if report.get("valid") is True else [("valid", "reported invalid")]
    if cmd.command == "curvature":
        samples = [(s["u"], s["v"], s["K"]) for s in report.get("samples", [])]
        errors = check_curvature(case, samples)
        if len(samples) != int(cmd.args[cmd.args.index("--points") + 1]):
            errors.append(("curvature", f"{len(samples)} samples"))
        if not report.get("max_deviation_from_minus_half", 1.0) <= CURVATURE_TOL:
            errors.append(("curvature", "max deviation above tolerance"))
        return errors
    if cmd.command == "geodesic":
        return _check_cli_geodesic(cmd, report, csv_rows)
    if cmd.command == "completeness":
        return check_completeness(case, report.get("verdict"), _number(report.get("integral_value")))
    if cmd.command == "einstein":
        return check_einstein(case, report.get("is_einstein"))
    if cmd.command == "classify":
        errors = check_classification(case, report.get("family"), report.get("params", {}))
        comp = report.get("completeness", {})
        errors += check_completeness(case, comp.get("verdict"), _number(comp.get("integral_value")))
        errors += check_einstein(case, report.get("einstein", {}).get("is_einstein"))
        return errors
    return [("command", f"unknown command {cmd.command!r}")]


def _number(value):
    return math.inf if value == "inf" else value


def _check_cli_geodesic(cmd, report, csv_rows) -> list:
    length = float(cmd.args[cmd.args.index("--length") + 1])
    direction = cmd.args[cmd.args.index("--dir") + 1]
    errors = []
    if report.get("arc_length") != length or report.get("boundary_hit") is not False:
        errors.append(("full_length", f"arc {report.get('arc_length')!r} of {length}"))
    if not report.get("max_energy_drift", 1.0) <= ENERGY_TOL:
        errors.append(("energy", f"drift {report.get('max_energy_drift')!r}"))
    if report.get("self_intersection", {}).get("passed") is not True:
        errors.append(("screen", "self-intersection screen failed"))
    components = [complex(part) for part in direction.split(",")]
    reduction = report.get("reduction")
    if all(w.imag == 0.0 for w in components):
        slice_dir = (components[0].real, components[1].real)
        if reduction is not None:
            errors.append(("reduction", "real direction was rotated"))
    else:
        # phase -arg(w0) on z0; the unitary carries w/|w| to e1
        slice_dir = (abs(components[0]), abs(components[1]))
        theta = -math.atan2(components[0].imag, components[0].real)
        unitary = (reduction or {}).get("unitary", [[{}]])
        image = complex(unitary[0][0].get("re", 0.0), unitary[0][0].get("im", 0.0)) * components[1]
        if reduction is None or abs(reduction.get("theta", 0.0) - theta) > 1e-12 \
                or abs(image - abs(components[1])) > 1e-12:
            errors.append(("reduction", f"rotation {reduction!r}"))
    if cmd.csv_out:
        if not csv_rows or csv_rows[0] != "s,u,v,du,dv,energy":
            return errors + [("csv", "missing or malformed CSV trace")]
        data = np.array([[float(x) for x in row.split(",")] for row in csv_rows[1:]])
        if len(data) != report.get("samples"):
            errors.append(("csv", f"{len(data)} rows for {report.get('samples')} samples"))
        errors += check_trace(cmd.case, slice_dir, length, data[:, 0], data[:, 1], data[:, 2],
                              data[:, 5], True, False)
    return errors
