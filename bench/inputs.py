"""Seeded input generators for the benchmark workloads.

The generators are the benchmark's own: the program under test only ever
sees the point files written from them. Each takes a numpy Generator, so the
same benchmark seed gives the same inputs.
"""

from __future__ import annotations

import math

import numpy as np

# Vertex counts of the runs of each polyline in one compress cycle: straight,
# arc, straight, ... (36 to 76 vertices, one to three arcs). The seed draws the
# geometry; fixing the layout keeps each polyline's candidate count, and so the
# cycle's work, the same for every seed.
PARCELS = (
    (6, 23, 6),
    (5, 14, 5, 14, 5),
    (6, 17, 6, 16, 6),
    (7, 20, 7, 18, 7),
    (6, 14, 5, 15, 5, 15, 7),
    (7, 17, 6, 16, 6, 17, 6),
)


def noisy_arc(rng, n_points: int, span_deg: float = 72.0, radius: float = 1.0,
              noise: float = 0.1) -> np.ndarray:
    """(n, 2) points at uniform angular steps along an arc of the circle of
    `radius` about the origin, each moved by an offset drawn uniformly from
    a disc of radius noise * radius. Same construction as arcfit.scenario."""
    theta0 = rng.uniform(0.0, 2.0 * math.pi)
    angles = theta0 + np.linspace(0.0, math.radians(span_deg), n_points)
    base = radius * np.column_stack((np.cos(angles), np.sin(angles)))
    rho = noise * radius * np.sqrt(rng.uniform(size=n_points))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n_points)
    return base + np.column_stack((rho * np.cos(phi), rho * np.sin(phi)))


def parcel(rng, runs) -> tuple[np.ndarray, int, int]:
    """Polyline of straight runs alternating with exact arc runs, starting and
    ending straight; runs[k] is the number of vertices run k adds. Every
    junction kinks the tangent, so no single circle or line fits across it.
    Returns (vertices, n_segments, n_arcs), the counts an optimal compression
    recovers."""
    pos = rng.uniform(-5.0, 5.0, size=2)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    verts = [pos.copy()]

    def turn_sign():
        return 1.0 if rng.uniform() < 0.5 else -1.0

    for k, count in enumerate(runs):
        if k % 2 == 0:
            heading += rng.uniform(0.35, 1.0) * turn_sign()
            length = rng.uniform(3.0, 8.0)
            d = np.array([math.cos(heading), math.sin(heading)])
            for step in np.linspace(0.0, length, count + 1)[1:]:
                verts.append(pos + step * d)
        else:
            tangent = heading + rng.uniform(0.3, 1.0) * turn_sign()
            turn = turn_sign()
            radius = rng.uniform(2.0, 6.0)
            span = rng.uniform(0.6, 2.4)
            normal = tangent + turn * 0.5 * math.pi
            center = pos + radius * np.array([math.cos(normal),
                                              math.sin(normal)])
            a0 = math.atan2(pos[1] - center[1], pos[0] - center[0])
            for a in np.linspace(a0, a0 + turn * span, count + 1)[1:]:
                verts.append(center + radius * np.array([math.cos(a),
                                                         math.sin(a)]))
            heading = tangent + turn * span
        pos = verts[-1].copy()
    n_arcs = len(runs) // 2
    return np.array(verts), n_arcs + 1, n_arcs


def extent(points) -> float:
    pts = np.asarray(points, dtype=float)
    return float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
