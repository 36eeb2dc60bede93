"""Command-line front end: fit point files, compress polylines, and run the
seeded estimator comparison.

Exit codes: 0 success, 2 unreadable/malformed input or bad flags, 3 a fit
reported degenerate geometry or a result outside the float range.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .compress import compress
from .errors import FitError, OutOfRange
from .fit import free_fit, kasa_fit, one_point_fit, penalty, two_point_fit
from .moments import from_points
from .pointfile import read_points
from .reference import exact_sse, geometric_fit
from .scenario import SimScenario, trial_points


def _point_flag(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="arcfit",
        description="Moment-based circular arc fitting and polyline compression")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a circle to a point file")
    p_fit.add_argument("input", help="point file (x y per line, # comments)")
    p_fit.add_argument("--through", action="append", type=_point_flag,
                       metavar="X,Y",
                       help="anchor the circle through this point (repeatable, up to 2)")
    p_fit.add_argument("--sweeps", type=int, default=1,
                       help="refinement sweeps for the unconstrained fit")
    p_fit.add_argument("--format", choices=("json", "csv"), default="json")

    p_cmp = sub.add_parser("compress", help="compress a polyline file")
    p_cmp.add_argument("input", help="polyline file (x y per line, # comments)")
    p_cmp.add_argument("--tol", type=float, required=True,
                       help="maximum allowed deviation from the source polyline")
    p_cmp.add_argument("--prefilter", action="store_true",
                       help="accepted for compatibility; has no effect, the "
                            "search is always exhaustive")
    p_cmp.add_argument("--format", choices=("json", "csv"), default="json")

    p_cmpre = sub.add_parser("compare",
                             help="seeded comparison of the three estimators")
    p_cmpre.add_argument("--span", type=float, default=72.0, help="arc span, degrees")
    p_cmpre.add_argument("--radius", type=float, default=1.0)
    p_cmpre.add_argument("--points", type=int, default=1000)
    p_cmpre.add_argument("--noise", type=float, default=0.1,
                         help="noise disc radius as a fraction of the radius")
    p_cmpre.add_argument("--trials", type=int, default=200)
    p_cmpre.add_argument("--seed", type=int, default=0)
    p_cmpre.add_argument("--format", choices=("json", "csv"), default="csv")
    return parser


def _json(obj) -> str:
    """Strict JSON text of obj; a NaN or infinity in it is a result outside
    the float range."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError:
        raise OutOfRange("result outside the float range") from None


def _emit_kv(pairs: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json(pairs))
    else:
        lines = [f"{key},{_json(value)}" for key, value in pairs.items()]
        print("key,value")
        print("\n".join(lines))


def _cmd_fit(args) -> int:
    points = read_points(args.input)
    anchors = args.through or []
    if len(anchors) > 2:
        print("error: at most two --through anchors", file=sys.stderr)
        return 2
    if len(points) == 0:
        print(f"error: {args.input}: no points", file=sys.stderr)
        return 2
    acc = from_points(points)
    if len(anchors) == 0:
        mode = "free"
        circle = free_fit(acc, sweeps=args.sweeps)
    elif len(anchors) == 1:
        mode = "one_point"
        circle = one_point_fit(acc, anchors[0])
    else:
        mode = "two_point"
        circle = two_point_fit(acc, anchors[0], anchors[1])
    pen = penalty(acc, circle)
    report = {
        "mode": mode,
        "center": [circle.cx, circle.cy],
        "radius": circle.r,
        "objective": pen / len(points),
        "penalty": pen,
        "exact_sse": exact_sse(points, circle),
        "n_points": len(points),
        "anchors": [list(a) for a in anchors],
        "sweeps": args.sweeps,
    }
    _emit_kv(report, args.format)
    return 0


def _cmd_compress(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        print("error: --tol must be finite and nonnegative", file=sys.stderr)
        return 2
    polyline = read_points(args.input)
    path = compress(polyline, args.tol)
    report = path.to_dict(polyline)
    report["n_points"] = len(polyline)
    report["tol"] = args.tol
    text = _json(report)  # also refuses non-finite numbers for the CSV form
    if args.format == "json":
        print(text)
    else:
        print("type,i,j,ssd,exact_ssd,cx,cy,radius,orientation")
        for rec in report["primitives"]:
            if rec["type"] == "arc":
                geo = (f"{rec['center'][0]!r},{rec['center'][1]!r},"
                       f"{rec['radius']!r},{rec['orientation']}")
            else:
                geo = ",,,"
            print(f"{rec['type']},{rec['i']},{rec['j']},{rec['ssd']!r},"
                  f"{rec['exact_ssd']!r},{geo}")
    return 0


def _mean(values: list) -> float:
    """Mean of finite floats, also where their sum overflows: the values
    are then scaled by a power of two that keeps the sum finite (exact
    unless a value underflows) and the mean is scaled back."""
    # An overflowing sum is expected here, and numpy need not warn about it.
    with np.errstate(over="ignore"):
        mean = float(np.mean(values))
        if math.isfinite(mean):
            return mean
        k = len(values).bit_length()
        return float(np.ldexp(np.mean(np.ldexp(values, -k)), k))


def _cmd_compare(args) -> int:
    scenario = SimScenario(arc_span_deg=args.span, radius=args.radius,
                           n_points=args.points, noise_amp=args.noise,
                           trials=args.trials, seed=args.seed)
    rows = []
    for trial in range(scenario.trials):
        pts = trial_points(scenario, trial)
        acc = from_points(pts)
        kasa = kasa_fit(acc)
        free = free_fit(acc, sweeps=1)
        geom = geometric_fit(pts, kasa)
        rows.append({
            "trial": trial,
            "r_kasa": kasa.r,
            "r_free": free.r,
            "r_geom": geom.r,
            "center_err_kasa": math.hypot(kasa.cx, kasa.cy),
            "center_err_free": math.hypot(free.cx, free.cy),
            "center_err_geom": math.hypot(geom.cx, geom.cy),
        })
    closer = sum(abs(r["r_free"] - r["r_geom"]) < abs(r["r_kasa"] - r["r_geom"])
                 for r in rows)
    aggregate = {
        "true_radius": scenario.radius,
        "mean_r_kasa": _mean([r["r_kasa"] for r in rows]),
        "mean_r_free": _mean([r["r_free"] for r in rows]),
        "mean_r_geom": _mean([r["r_geom"] for r in rows]),
        "frac_free_closer_than_kasa": closer / len(rows),
    }
    text = _json({"trials": rows, "aggregate": aggregate})
    if args.format == "json":
        print(text)
    else:
        cols = list(rows[0].keys())
        print(",".join(cols))
        for row in rows:
            print(",".join(repr(row[c]) if isinstance(row[c], float)
                           else str(row[c]) for c in cols))
        for key, value in aggregate.items():
            print(f"# {key}={value!r}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "compress":
            return _cmd_compress(args)
        return _cmd_compare(args)
    except FitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
