"""The four benchmark workloads: their inputs, operations and output checks.

An operation is one `arcfit.cli.main(argv)` call. Each workload writes its
inputs as point files when it is built and holds a fixed cycle of
operations; the benchmark runs the cycle round and round. A check parses an
operation's stdout, raises CheckFailed on anything wrong and returns the
numbers the quality metrics are made from.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from arcfit.pointfile import write_points

import inputs

ANCHOR_RTOL = 1e-9      # anchors lie on the returned circle
SSE_RTOL = 1e-9         # reported exact_sse against the benchmark's own sum
MAX_RADIUS_ERR = 0.25   # a free fit of these clouds lands far closer to r = 1

# Quality numbers a workload reports when it has the outputs they need.
QUALITY_UNITS = {"radius_rel_err_p50": "ratio", "penalty_total": "count",
                 "arcs_recovered_frac": "ratio"}


class CheckFailed(Exception):
    pass


def _reject_constant(name):
    raise CheckFailed(f"non-finite number {name} in output")


def parse_json(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"unparsable JSON: {exc}") from exc


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _finite(*values) -> None:
    for v in values:
        _require(isinstance(v, (int, float)) and math.isfinite(v),
                 f"non-finite or non-numeric value {v!r}")


class Op(NamedTuple):
    argv: list[str]
    check: Callable[[str], dict]


class Workload:
    name: str
    ops: list[Op]        # one cycle
    warmup: list[str]    # argv of a small operation run during set-up

    @staticmethod
    def quality(records: list[dict]) -> dict:
        """Quality numbers over one check record per distinct operation."""
        out = {}
        errs = [e for r in records for e in r.get("radius_rel_err", ())]
        if errs:
            out["radius_rel_err_p50"] = statistics.median(errs)
        pens = [r["penalty"] for r in records if "penalty" in r]
        if pens:
            out["penalty_total"] = math.fsum(pens)
            out["arcs_recovered_frac"] = (
                sum(r["recovered"] for r in records) / len(records))
        return out


class FitCloud(Workload):
    """`arcfit fit` on one 10,000-point noisy 72-degree arc with 10% noise,
    cycling through the free fit, the fit through the first point and the
    fit through the first and last points."""

    name = "fit_cloud"
    N_POINTS = 10_000

    def __init__(self, root: Path, rng):
        pts = inputs.noisy_arc(rng, self.N_POINTS)
        path = root / "cloud.txt"
        write_points(path, pts)
        kasa = _kasa(pts)
        ends = [(float(x), float(y)) for x, y in (pts[0], pts[-1])]
        self.ops = []
        for k in range(3):
            anchors = ends[:k]
            # `--through=X,Y`: argparse reads `--through -0.5,0.2` as a flag.
            argv = ["fit", str(path)] + [f"--through={x!r},{y!r}"
                                         for x, y in anchors]
            self.ops.append(Op(argv, functools.partial(
                _check_fit, pts, anchors, kasa)))
        warm = root / "warmup.txt"
        write_points(warm, inputs.noisy_arc(rng, 200))
        self.warmup = ["fit", str(warm)]


def _kasa(pts: np.ndarray) -> tuple[float, float, float]:
    """Algebraic least-squares circle, solved directly from the points."""
    x, y = pts[:, 0], pts[:, 1]
    design = np.column_stack((2.0 * x, 2.0 * y, np.ones_like(x)))
    (a, b, c), *_ = np.linalg.lstsq(design, x * x + y * y, rcond=None)
    return float(a), float(b), math.sqrt(c + a * a + b * b)


def _objective(pts: np.ndarray, cx: float, cy: float, r: float) -> float:
    """Mean of (d^2 - r^2)^2 / (4 r^2) over the points."""
    d2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
    return float(np.mean((d2 - r * r) ** 2)) / (4.0 * r * r)


def _check_fit(pts, anchors, kasa, out: str) -> dict:
    rep = parse_json(out)
    cx, cy = rep["center"]
    r = rep["radius"]
    _finite(cx, cy, r, rep["exact_sse"], rep["objective"], rep["penalty"])
    _require(r > 0.0, "radius not positive")
    _require(rep["n_points"] == len(pts), "n_points differs from the file")
    mode = ("free", "one_point", "two_point")[len(anchors)]
    _require(rep["mode"] == mode, f"mode {rep['mode']!r}, expected {mode!r}")
    for ax, ay in anchors:
        gap = abs(math.hypot(ax - cx, ay - cy) - r)
        _require(gap <= ANCHOR_RTOL * r, f"anchor off the circle by {gap!r}")
    d = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    sse = float(np.sum((d - r) ** 2))
    _require(abs(rep["exact_sse"] - sse) <= SSE_RTOL * sse,
             f"exact_sse {rep['exact_sse']!r}, recomputed {sse!r}")
    if anchors:
        return {}
    err = abs(r - 1.0)
    _require(err <= MAX_RADIUS_ERR, f"radius {r!r} far from the true 1.0")
    # The free fit starts at the algebraic fit and only takes steps that
    # lower the objective, so it can be no worse than that start.
    _require(_objective(pts, cx, cy, r) <= _objective(pts, *kasa) * (1 + 1e-6),
             "free fit objective above the algebraic fit's")
    return {"radius_rel_err": [err]}


class Compare72(Workload):
    """`arcfit compare` at the paper's 72-degree, 10%-noise scenario with a
    fixed trial count and a scenario seed drawn from the benchmark seed.
    Every run must print the same bytes as the first."""

    name = "compare_72"
    TRIALS = 4
    COLUMNS = ["trial", "r_kasa", "r_free", "r_geom", "center_err_kasa",
               "center_err_free", "center_err_geom"]

    def __init__(self, root: Path, rng):
        seed = int(rng.integers(0, 2**31))
        self.ops = [Op(["compare", "--span", "72", "--noise", "0.1",
                        "--points", "1000", "--trials", str(self.TRIALS),
                        "--seed", str(seed)], self._check)]
        self.first = None
        self.warmup = ["compare", "--points", "50", "--trials", "1"]

    def _check(self, out: str) -> dict:
        if self.first is None:
            self.first = out
        _require(out == self.first, "repeated compare output differs")
        lines = out.splitlines()
        _require(lines and lines[0].split(",") == self.COLUMNS,
                 "unexpected compare header")
        rows = lines[1:1 + self.TRIALS]
        _require(len(rows) == self.TRIALS, "missing trial rows")
        errs = []
        for k, row in enumerate(rows):
            cells = row.split(",")
            _require(len(cells) == len(self.COLUMNS) and cells[0] == str(k),
                     f"malformed trial row {row!r}")
            vals = [float(c) for c in cells[1:]]
            _finite(*vals)
            r_kasa, r_free, r_geom = vals[:3]
            _require(min(r_kasa, r_free, r_geom) > 0.0, "radius not positive")
            _require(abs(r_free - 1.0) <= MAX_RADIUS_ERR,
                     f"r_free {r_free!r} far from the true 1.0")
            errs.append(abs(r_free - 1.0))
        aggregate = lines[1 + self.TRIALS:]
        _require(len(aggregate) == 5, "missing aggregate lines")
        for line in aggregate:
            key, sep, value = line.partition("=")
            _require(key.startswith("# ") and sep == "=",
                     f"malformed aggregate {line!r}")
            _finite(float(value))
        return {"radius_rel_err": errs}


class CompressParcel(Workload):
    """Exhaustive `arcfit compress` on seeded parcel polylines of the sizes in
    inputs.PARCELS, at a tolerance of 1e-6 times the extent."""

    name = "compress_parcel"
    prefilter = False

    def __init__(self, root: Path, rng):
        self.ops = []
        for k, runs in enumerate(inputs.PARCELS):
            verts, n_seg, n_arc = inputs.parcel(rng, runs)
            path = root / f"parcel{k}.txt"
            write_points(path, verts)
            tol = 1e-6 * inputs.extent(verts)
            argv = ["compress", str(path), f"--tol={tol!r}"]
            if self.prefilter:
                argv.append("--prefilter")
            self.ops.append(Op(argv, functools.partial(
                self._check, len(verts), n_seg, n_arc)))
        verts, _, _ = inputs.parcel(rng, (4, 8, 4))
        warm = root / "warmup.txt"
        write_points(warm, verts)
        self.warmup = ["compress", str(warm),
                       f"--tol={1e-6 * inputs.extent(verts)!r}"]

    def _check(self, n: int, n_seg: int, n_arc: int, out: str) -> dict:
        rep = parse_json(out)
        _finite(rep["penalty"], rep["ssd"], rep["exact_ssd"], rep["tol"])
        prims = rep["primitives"]
        _require(rep["n_points"] == n, "n_points differs from the file")
        kinds = [p["type"] for p in prims]
        _require(kinds.count("segment") == rep["segments"]
                 and kinds.count("arc") == rep["arcs"]
                 and len(kinds) == rep["segments"] + rep["arcs"],
                 "segment/arc counts disagree with the primitives")
        _require(rep["penalty"] == 2 * rep["segments"] + 3 * rep["arcs"],
                 "penalty is not 2*segments + 3*arcs")
        _require(prims and prims[0]["i"] == 0 and prims[-1]["j"] == n - 1
                 and all(a["j"] == b["i"] for a, b in zip(prims, prims[1:])),
                 "primitives do not chain over the polyline")
        for p in prims:
            _finite(p["ssd"], p["exact_ssd"])
            if p["type"] == "arc":
                _finite(*p["center"], p["radius"])
                _require(p["radius"] > 0.0, "arc radius not positive")
        # The generator's segments and arcs are the exhaustive optimum: every
        # run needs a primitive of its own, since no segment or arc stays
        # within tol across a kinked junction, and an arc run needs an arc or
        # at least two segments. A prefiltered search cannot do better.
        least = 2 * n_seg + 3 * n_arc
        _require(rep["penalty"] >= least,
                 f"penalty {rep['penalty']!r} below the optimum {least}")
        return {"penalty": rep["penalty"],
                "recovered": (rep["segments"], rep["arcs"]) == (n_seg, n_arc)}


class CompressPrefilter(CompressParcel):
    """The compress_parcel polylines with `--prefilter`."""

    name = "compress_prefilter"
    prefilter = True


WORKLOADS = {w.name: w for w in (FitCloud, Compare72, CompressParcel,
                                 CompressPrefilter)}
