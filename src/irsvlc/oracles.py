"""Slow, independent reference computations used to validate the fast paths.

Each oracle re-derives a result by brute force instead of the closed form it
checks: mirror orientation by exhaustive angular search, the Gaussian tail by
adaptive quadrature, box occlusion by dense point sampling, and the reflector
bank's per-cell gains by one single-cell model call per cell. `irsvlc verify`
and the acceptance tests share the first three checks, which return numbers:
mirror_normal_deviation, q_function_error and occlusion_disagreements.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import shadowed
from .geometry import OrientedBoxes, Vec3, normalize
from .irs import MirrorElement, mirror_element_gain, optimal_mirror_normal
from .scene import Luminaire, PhotoDetector
from .simulator import Layout, q_function

Q_NUMERIC_MAX_ARG = 40.0
COARSE_STEP_DEG = 2.0  # grid_search_mirror_normal's first sweep; refined to 1/10 and 1/100
OCCLUSION_SAMPLES = 2000  # evenly spaced points per segment in point_sample_occlusion


def _orthobasis(axis: Vec3) -> tuple[Vec3, Vec3]:
    """Two unit vectors completing axis to an orthonormal frame."""
    helper = np.array([0.0, 0.0, 1.0])
    if abs(float(axis @ helper)) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    b1 = normalize(np.cross(axis, helper))
    return b1, np.cross(axis, b1)


def grid_search_mirror_normal(src: Vec3, elem_center: Vec3, dst: Vec3) -> Vec3:
    """Best mirror orientation by exhaustive sweep plus two local refinements.

    Candidates are parametrized by polar/azimuth angles around the source
    direction (the optimum always lies in that hemisphere). The objective is
    steering alignment: the cosine between the specularly reflected source
    ray and the direction to the destination. The element aperture plays no
    role in the angular search.
    """
    c = np.asarray(elem_center, dtype=float)
    u_hat = normalize(np.asarray(src, dtype=float) - c)
    v_hat = normalize(np.asarray(dst, dtype=float) - c)
    if float(np.linalg.norm(u_hat + v_hat)) < 1e-9:
        raise ValueError("degenerate geometry: source and destination are antipodal "
                         "through the element")
    b1, b2 = _orthobasis(u_hat)

    def best_of(theta_deg: np.ndarray, omega_deg: np.ndarray) -> tuple[float, float, float]:
        th = np.radians(theta_deg)
        om = np.radians(omega_deg)
        tt, oo = np.meshgrid(th, om, indexing="ij")
        tt, oo = tt.ravel(), oo.ravel()
        st = np.sin(tt)
        normals = (np.cos(tt)[:, None] * u_hat
                   + (st * np.cos(oo))[:, None] * b1
                   + (st * np.sin(oo))[:, None] * b2)
        # reflect(-u_hat, n) = -u_hat + 2 (u_hat . n) n, valid while u_hat . n > 0
        un = normals @ u_hat
        reflected = -u_hat + 2.0 * un[:, None] * normals
        align = reflected @ v_hat
        k = int(np.argmax(align))
        return float(align[k]), float(np.degrees(tt[k])), float(np.degrees(oo[k]))

    step = COARSE_STEP_DEG
    thetas = np.arange(0.0, 90.0, step)
    omegas = np.arange(0.0, 360.0, step)
    _, best_t, best_o = best_of(thetas, omegas)
    for refine in (step / 10.0, step / 100.0):
        offs = np.arange(-10, 11) * refine
        thetas = np.clip(best_t + offs, 0.0, 90.0 - 1e-9)
        omegas = best_o + offs
        _, best_t, best_o = best_of(thetas, omegas)
    t, o = math.radians(best_t), math.radians(best_o)
    n = (math.cos(t) * u_hat + math.sin(t) * (math.cos(o) * b1 + math.sin(o) * b2))
    return normalize(n)


def q_numeric(x: float) -> float:
    """Gaussian tail probability by adaptive quadrature of the density."""
    # imported here: scipy.integrate costs ~0.4 s to load, and only the
    # verify subcommand and the tests need it
    from scipy.integrate import quad

    if abs(x) > Q_NUMERIC_MAX_ARG:
        raise ValueError(f"|x| = {abs(x)} exceeds the supported range "
                         f"[{-Q_NUMERIC_MAX_ARG}, {Q_NUMERIC_MAX_ARG}]")

    def density(t: float) -> float:
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    # the tail beyond the supported range is ~1e-350, far below double
    # precision, and a finite interval keeps the quadrature error tight
    value, abserr = quad(density, x, Q_NUMERIC_MAX_ARG, epsabs=1e-14, limit=200)
    # the reported error estimate is conservative and bottoms out near
    # machine epsilon relative to the O(1) integrand, so gate loosely
    if abserr > 1e-7:
        raise RuntimeError(f"tail integral did not converge: abserr {abserr}")
    return value


def point_sample_occlusion(p: Vec3, q: Vec3, box: OrientedBoxes) -> bool:
    """Occlusion verdict by testing evenly spaced interior points of the segment.

    box is a one-row set. Points sit strictly between the endpoints, and only
    strict box-interior membership counts, mirroring the open-segment/open-box
    convention.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    ts = np.arange(1, OCCLUSION_SAMPLES + 1) / (OCCLUSION_SAMPLES + 1.0)
    lx, ly, lz = _to_local(box, p + ts[:, None] * (q - p))
    hx, hy, hz = box.half_extents
    inside = (np.abs(lx) < hx) & (np.abs(ly) < hy) & (np.abs(lz) < hz)
    return bool(inside.any())


def _to_local(box: OrientedBoxes, points: np.ndarray) -> np.ndarray:
    """Local x, y, z, axis first, of points (n, 3) in a one-row box set's frame."""
    d = points - box.center[0]
    cos_y, sin_y = math.cos(box.yaw[0]), math.sin(box.yaw[0])
    return np.array([cos_y * d[:, 0] + sin_y * d[:, 1], -sin_y * d[:, 0] + cos_y * d[:, 1],
                     d[:, 2]])


def _interior_interval(p: Vec3, q: Vec3, box: OrientedBoxes) -> float:
    """Length of the segment-parameter interval lying strictly inside a one-row box set."""
    a, b = _to_local(box, np.array((p, q))).T
    d = b - a
    lo, hi = 0.0, 1.0
    for i in range(3):
        h = box.half_extents[i]
        if d[i] == 0.0:
            if abs(a[i]) >= h:
                return 0.0
            continue
        t1 = (-h - a[i]) / d[i]
        t2 = (h - a[i]) / d[i]
        if t1 > t2:
            t1, t2 = t2, t1
        lo, hi = max(lo, t1), min(hi, t2)
        if lo >= hi:
            return 0.0
    return hi - lo


def occlusion_corpus(rng: np.random.Generator,
                     cases: int) -> list[tuple[Vec3, Vec3, OrientedBoxes]]:
    """Random segment/box pairs safe for the sampling oracle, each box a one-row set.

    Near-tangent geometry is rejected: the slab verdict must be stable under
    +/- 1e-6 box inflation, and true hits must cross enough of the segment
    for the evenly spaced sampler to resolve them.
    """
    out: list[tuple[Vec3, Vec3, OrientedBoxes]] = []
    while len(out) < cases:
        p = rng.uniform(-1.0, 6.0, 3)
        q = rng.uniform(-1.0, 6.0, 3)
        if np.array_equal(p, q):
            continue
        center = np.array([[rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0),
                            rng.uniform(0.0, 3.0)]])
        half = tuple(rng.uniform(0.05, 1.2, 3))
        box = OrientedBoxes(center, half, [rng.uniform(0.0, math.pi)])
        grown, shrunk = (OrientedBoxes(box.center, tuple(h + d for h in half), box.yaw)
                         for d in (1e-6, -1e-6))
        if shadowed(p, q, grown) != shadowed(p, q, shrunk):
            continue
        if shadowed(p, q, box) and _interior_interval(p, q, box) * (OCCLUSION_SAMPLES + 1) < 6.0:
            continue
        out.append((p, q, box))
    return out


def mirror_normal_deviation(geometries: int) -> tuple[float | None, int]:
    """Largest relative steered-element gain deviation, closed-form normal vs grid search.

    Checks `geometries` random ones from seed 20 240 814, skipping those with
    an endpoint within 0.3 m of the element or nearly antipodal directions,
    and returns the deviation and the count checked. At the first geometry
    whose closed-form orientation gives zero gain it returns (None, count).
    """
    rng = np.random.default_rng(20_240_814)
    worst, checked = 0.0, 0
    while checked < geometries:
        c = rng.uniform(0.5, 4.5, 3)
        src, dst = rng.uniform(0.0, 5.0, (2, 3))
        if min(np.linalg.norm(src - c), np.linalg.norm(dst - c)) < 0.3:
            continue
        if float(np.linalg.norm(normalize(src - c) + normalize(dst - c))) < 1e-3:
            continue
        ap = Luminaire(src, normalize(c - src), 1.0)
        ue = PhotoDetector(dst, normalize(c - dst))
        g_closed, g_search = (mirror_element_gain(ap, MirrorElement(c, n), ue) for n in
                              (optimal_mirror_normal(src, c, dst),
                               grid_search_mirror_normal(src, c, dst)))
        if g_closed <= 0.0:
            return None, checked
        worst = max(worst, abs(g_search - g_closed) / g_closed)
        checked += 1
    return worst, checked


def q_function_error(points: int) -> float:
    """Largest |Q(x) - quadrature| over `points` evenly spaced x in [0, 8]."""
    return max(abs(q_function(float(x)) - q_numeric(float(x)))
               for x in np.linspace(0.0, 8.0, points))


def occlusion_disagreements(cases: int) -> int:
    """Slab-test verdicts that point sampling contradicts, over a corpus from seed 67 415."""
    corpus = occlusion_corpus(np.random.default_rng(67_415), cases)
    return sum(shadowed(p, q, box) != point_sample_occlusion(p, q, box)
               for p, q, box in corpus)


def _patch_gain(ap: "Luminaire", center: Vec3, normal: Vec3, efficiency: float,
                ue: "PhotoDetector") -> float:
    """Closed form of one steered metasurface patch.

    efficiency (m+1) A cos^m(phi) cos(psi) / (2 pi (d1+d2)^2), zero unless the
    source and the detector stand in front of the patch and the patch lies in
    the source's forward hemisphere and in the detector's field of view.
    """
    s, v = ap.position - center, ue.position - center
    d1, d2 = math.sqrt(float(s @ s)), math.sqrt(float(v @ v))
    cos_phi, cos_psi = -float(s @ ap.normal) / d1, -float(v @ ue.normal) / d2
    if float(s @ normal) <= 0.0 or float(v @ normal) <= 0.0:
        return 0.0
    if cos_phi <= 0.0 or cos_psi <= 0.0 or cos_psi < math.cos(ue.fov):
        return 0.0
    m = ap.lambertian_order
    return (efficiency * (m + 1.0) * ue.area / (2.0 * math.pi * (d1 + d2) ** 2)
            * cos_phi ** m * cos_psi)


def _steered_mirror_gain(ap: "Luminaire", center: Vec3, reflectivity: float,
                         ue: "PhotoDetector") -> float:
    try:
        normal = optimal_mirror_normal(ap.position, center, ue.position)
    except ValueError:  # no plane reflects the source onto the detector
        return 0.0
    return mirror_element_gain(ap, MirrorElement(center, normal, reflectivity=reflectivity), ue)


def reflector_cell_gains(ap: "Luminaire", layout: Layout, ue: "PhotoDetector") -> np.ndarray:
    """Every cell's gain of the layout's arrays lit by ap, from its single-cell model,
    in the order of ReflectorBank(ap, *layout).

    Mirrors are steered to optimal_mirror_normal and evaluated by
    mirror_element_gain; metasurface patches use their closed form.
    """
    mirror_arrays, metasurface_arrays = layout
    gains = [_steered_mirror_gain(ap, c, arr.scale, ue)
             for arr in mirror_arrays for c in arr.centers]
    gains += [_patch_gain(ap, c, arr.normal, arr.scale, ue)
              for arr in metasurface_arrays for c in arr.centers]
    return np.array(gains, dtype=float)
