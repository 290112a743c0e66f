"""Slow, independent reference computations used to validate the fast paths.

Each oracle re-derives a result by brute force instead of the closed form it
checks: mirror orientation by exhaustive angular search, the Gaussian tail by
adaptive quadrature, box occlusion by dense point sampling, and the reflector
bank's per-cell gains by one single-cell model call per cell.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .channel import shadowed
from .geometry import OrientedBox, Vec3, normalize
from .irs import MirrorElement, mirror_element_gain, optimal_mirror_normal

if TYPE_CHECKING:  # pragma: no cover
    from .scene import Luminaire, PhotoDetector, Scene

Q_NUMERIC_MAX_ARG = 40.0


def _orthobasis(axis: Vec3) -> tuple[Vec3, Vec3]:
    """Two unit vectors completing axis to an orthonormal frame."""
    helper = np.array([0.0, 0.0, 1.0])
    if abs(float(axis @ helper)) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    b1 = normalize(np.cross(axis, helper))
    return b1, np.cross(axis, b1)


def grid_search_mirror_normal(src: Vec3, elem_center: Vec3, dst: Vec3,
                              coarse_step_deg: float = 2.0) -> Vec3:
    """Best mirror orientation by exhaustive sweep plus two local refinements.

    Candidates are parametrized by polar/azimuth angles around the source
    direction (the optimum always lies in that hemisphere). The objective is
    steering alignment: the cosine between the specularly reflected source
    ray and the direction to the destination. The element aperture plays no
    role in the angular search.
    """
    if not 0.0 < coarse_step_deg <= 5.0:
        raise ValueError(f"coarse step {coarse_step_deg} outside (0, 5] degrees")
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

    step = coarse_step_deg
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


def point_sample_occlusion(p: Vec3, q: Vec3, box: OrientedBox,
                           samples: int = 2000) -> bool:
    """Occlusion verdict by testing evenly spaced interior points of the segment.

    Points sit strictly between the endpoints, and only strict box-interior
    membership counts, mirroring the open-segment/open-box convention.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    ts = np.arange(1, samples + 1) / (samples + 1.0)
    pts = p + ts[:, None] * (q - p)
    d = pts - box.center
    cos_y, sin_y = math.cos(box.yaw), math.sin(box.yaw)
    lx = cos_y * d[:, 0] + sin_y * d[:, 1]
    ly = -sin_y * d[:, 0] + cos_y * d[:, 1]
    hx, hy, hz = box.half_extents
    inside = (np.abs(lx) < hx) & (np.abs(ly) < hy) & (np.abs(d[:, 2]) < hz)
    return bool(inside.any())


def _interior_interval(p: Vec3, q: Vec3, box: OrientedBox) -> float:
    """Length of the segment-parameter interval lying strictly inside the box."""
    a = box.to_local(p)
    b = box.to_local(q)
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


def _inflated(box: OrientedBox, delta: float) -> OrientedBox:
    hx, hy, hz = box.half_extents
    return OrientedBox(box.center, (hx + delta, hy + delta, hz + delta), box.yaw)


def occlusion_corpus(rng: np.random.Generator, cases: int,
                     samples: int = 2000) -> list[tuple[Vec3, Vec3, OrientedBox]]:
    """Random segment/box pairs safe for the sampling oracle.

    Near-tangent geometry is rejected: the slab verdict must be stable under
    +/- 1e-6 box inflation, and true hits must cross enough of the segment
    for the evenly spaced sampler to resolve them.
    """
    out: list[tuple[Vec3, Vec3, OrientedBox]] = []
    while len(out) < cases:
        p = rng.uniform(-1.0, 6.0, 3)
        q = rng.uniform(-1.0, 6.0, 3)
        if np.array_equal(p, q):
            continue
        center = np.array([rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0),
                           rng.uniform(0.0, 3.0)])
        half = tuple(rng.uniform(0.05, 1.2, 3))
        box = OrientedBox(center, half, rng.uniform(0.0, math.pi))
        if shadowed(p, q, (_inflated(box, 1e-6),)) != shadowed(p, q, (_inflated(box, -1e-6),)):
            continue
        if shadowed(p, q, (box,)) and _interior_interval(p, q, box) * (samples + 1) < 6.0:
            continue
        out.append((p, q, box))
    return out


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


def reflector_cell_gains(scene: "Scene", ue: "PhotoDetector") -> np.ndarray:
    """Every array cell's gain from its single-cell model, in ReflectorBank order.

    Mirrors are steered to optimal_mirror_normal and evaluated by
    mirror_element_gain; metasurface patches use their closed form.
    """
    gains = [_steered_mirror_gain(ap, c, arr.scale, ue)
             for ap in scene.aps for arr in scene.mirror_arrays for c in arr.centers]
    gains += [_patch_gain(ap, c, arr.normal, arr.scale, ue)
              for ap in scene.aps for arr in scene.metasurface_arrays for c in arr.centers]
    return np.array(gains, dtype=float)
