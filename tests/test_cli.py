import json
import math
import random
import warnings

import numpy as np
import pytest

import arcfit as af
from arcfit import cli
from arcfit.cli import main
from arcfit.pointfile import (_parse_lines, parse_points, read_points,
                              write_points)

from helpers import circle_points, extent, parcel_polyline


@pytest.fixture()
def unit_circle_file(tmp_path):
    path = tmp_path / "circle.txt"
    pts = circle_points(af.Circle(0, 0, 1), 0.0, 2 * math.pi * 0.96, 40)
    write_points(path, pts)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPointFile:
    def test_parse_with_comments_and_blanks(self):
        text = "# header\n1 2\n\n  3.5\t-4e-1\n# trailing\n"
        assert np.array_equal(parse_points(text), [(1.0, 2.0), (3.5, -0.4)])

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_points("0 0\n1 2 3\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_points("a b\n")

    def test_round_trip(self, tmp_path):
        pts = [(0.1, -2.25), (1e-17, 3.0)]
        path = tmp_path / "pts.txt"
        write_points(path, pts)
        assert np.array_equal(read_points(path), pts)

    def test_block_parser_matches_line_loop(self):
        # The reference is the line-at-a-time loop over the whole text.
        rng = random.Random(20)
        good = ["1", "-2.5", "1e-300", "3E+2", "1_0", "nan", "-inf",
                "Infinity", "+0", "-0.0", ".5", "7.", "\u0661\u0662",
                "0.30000000000000004", "4.9e-324"]
        bad = ["a", "1e", "0x10", "1__0", "_1", "1,0", "--1", "nan(1)",
               "1\x00", "#2"]
        spaces = [" ", "  ", "\t", " \t ", "\xa0", "\x1f", "\u3000"]
        breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e",
                  "\x85", "\u2028", "\u2029"]
        fillers = ["", " ", "\t", "# comment", "  # x y", "#", "#1 2 3"]

        def line(kind):
            if kind == "filler":
                return rng.choice(fillers)
            toks = rng.choices(good, k=2)
            if kind == "tokens":
                toks = toks[:1] if rng.random() < 0.5 else toks + ["3"]
            elif kind == "float":
                toks[rng.randrange(2)] = rng.choice(bad)
            lead, trail = rng.choices(["", rng.choice(spaces)], k=2)
            return lead + rng.choice(spaces).join(toks) + trail

        outcomes = {"array": 0, "error": 0}
        for case in range(400):
            n = rng.choice([0, 1, 2, 5, 30] * 3 + [1023, 1024, 1025, 2600])
            kinds = rng.choices(["pair", "filler"], [9, 1], k=n)
            for _ in range(rng.choice([1, 2]) if n and case % 2 else 0):
                # up to two bad lines: a 1-token and a 3-token line
                # together keep the block's token count even
                kinds[rng.randrange(n)] = rng.choice(["tokens", "float"])
            text = "".join(line(k) + rng.choice(breaks) for k in kinds)
            try:
                want = np.array(_parse_lines(text.splitlines(), 1),
                                dtype=float).reshape(-1, 2)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    parse_points(text)
                assert str(got.value) == str(exc)
                outcomes["error"] += 1
            else:
                got = parse_points(text)
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                outcomes["array"] += 1
        assert min(outcomes.values()) > 100


class TestFitCommand:
    def test_free_fit_on_unit_circle(self, capsys, unit_circle_file):
        code, out, _ = run(capsys, "fit", str(unit_circle_file))
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "free"
        assert report["center"] == pytest.approx([0, 0], abs=1e-9)
        assert report["radius"] == pytest.approx(1.0, rel=1e-9)
        assert report["exact_sse"] == pytest.approx(0.0, abs=1e-18)
        assert set(report) == {"mode", "center", "radius", "objective",
                               "penalty", "exact_sse", "n_points", "anchors",
                               "sweeps"}

    def test_one_anchor_matches_free_on_exact_data(self, capsys, unit_circle_file):
        code, out, _ = run(capsys, "fit", str(unit_circle_file),
                           "--through", "1,0")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "one_point"
        assert report["center"] == pytest.approx([0, 0], abs=1e-9)
        assert report["radius"] == pytest.approx(1.0, rel=1e-9)
        cx, cy = report["center"]
        assert math.hypot(cx - 1.0, cy) == report["radius"]

    def test_two_anchors_matches_free_on_exact_data(self, capsys, unit_circle_file):
        code, out, _ = run(capsys, "fit", str(unit_circle_file),
                           "--through", "1,0", "--through", "0,1")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "two_point"
        assert report["center"] == pytest.approx([0, 0], abs=1e-9)
        assert report["radius"] == pytest.approx(1.0, rel=1e-9)

    def test_three_anchors_rejected(self, capsys, unit_circle_file):
        code, _, err = run(capsys, "fit", str(unit_circle_file),
                           "--through", "1,0", "--through", "0,1",
                           "--through=-1,0")
        assert code == 2
        assert "at most two" in err

    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", str(tmp_path / "nope.txt"))
        assert code == 2
        assert err

    def test_malformed_file_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\nthree four\n")
        code, _, err = run(capsys, "fit", str(bad))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("text", ["", "# header only\n\n  # x y\n"])
    def test_file_without_points(self, capsys, tmp_path, text):
        path = tmp_path / "none.txt"
        path.write_text(text)
        code, out, err = run(capsys, "fit", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: no points\n"

    def test_degenerate_fit_exit_code(self, capsys, tmp_path):
        line = tmp_path / "line.txt"
        write_points(line, [(t, 2 * t) for t in np.linspace(0, 1, 12)])
        code, _, err = run(capsys, "fit", str(line))
        assert code == 3
        assert "CollinearOrDegenerate" in err

    def test_one_anchor_without_pencil_center_is_degenerate(self, capsys,
                                                            tmp_path):
        # Point-symmetric about the anchor: every pencil eigenvector puts the
        # center at infinity, so no circle through the anchor is returned.
        rng = np.random.default_rng(0)
        half = rng.normal(size=(20, 2))
        pts = np.vstack((half, -half)) + rng.normal(0, 1e-9, (40, 2))
        path = tmp_path / "symmetric.txt"
        write_points(path, pts)
        code, out, err = run(capsys, "fit", str(path), "--through=0,0")
        assert code == 3, out
        assert out == ""
        assert "DegeneratePencil" in err

    def test_csv_format(self, capsys, unit_circle_file):
        code, out, _ = run(capsys, "fit", str(unit_circle_file),
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "key,value"


class TestCompressCommand:
    def test_collinear_file_single_segment(self, capsys, tmp_path):
        path = tmp_path / "line.txt"
        write_points(path, [(t, t) for t in np.linspace(0, 3, 9)])
        code, out, _ = run(capsys, "compress", str(path), "--tol", "0.01")
        assert code == 0
        report = json.loads(out)
        assert report["segments"] == 1 and report["arcs"] == 0
        assert report["penalty"] == 2.0

    def test_semicircle_file_single_arc(self, capsys, tmp_path):
        path = tmp_path / "arc.txt"
        write_points(path, circle_points(af.Circle(0, 0, 2), 0, math.pi, 24))
        code, out, _ = run(capsys, "compress", str(path), "--tol", "1e-8")
        assert code == 0
        report = json.loads(out)
        assert report["arcs"] == 1 and report["segments"] == 0
        prim = report["primitives"][0]
        assert prim["type"] == "arc"
        assert prim["center"] == pytest.approx([0, 0], abs=1e-9)
        again = af.CompressedPath.from_dict(report)
        assert again.total_penalty == report["penalty"]

    def test_zero_tolerance_on_noisy_data_all_segments(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "noise.txt"
        write_points(path, rng.normal(0, 1, (10, 2)))
        code, out, _ = run(capsys, "compress", str(path), "--tol", "0")
        assert code == 0
        report = json.loads(out)
        assert report["segments"] == 9 and report["arcs"] == 0

    def test_prefilter_flag_prints_the_same_bytes(self, capsys, tmp_path):
        # --prefilter is kept for old command lines and changes nothing
        arc = tmp_path / "arc.txt"
        write_points(arc, circle_points(af.Circle(0, 0, 2), 0.3, 0.3 + math.pi,
                                        24))
        parcel = tmp_path / "parcel.txt"
        pts, _, _ = parcel_polyline(np.random.default_rng(3), n_arcs=2)
        write_points(parcel, pts)
        for path, tol in ((arc, "1e-8"), (parcel, repr(1e-6 * extent(pts)))):
            for fmt in ("json", "csv"):
                argv = ("compress", str(path), f"--tol={tol}", "--format", fmt)
                code, plain, _ = run(capsys, *argv)
                assert code == 0
                assert run(capsys, *argv, "--prefilter") == (0, plain, "")

    def test_negative_tolerance_rejected(self, capsys, tmp_path):
        path = tmp_path / "line.txt"
        write_points(path, [(0, 0), (1, 1)])
        code, *_ = run(capsys, "compress", str(path), "--tol", "-1")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_rejected(self, capsys, tmp_path, tol):
        path = tmp_path / "tri.txt"
        write_points(path, [(0, 0), (5, 5), (10, 0)])
        code, out, err = run(capsys, "compress", str(path), f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "--tol" in err


def test_compress_far_vertex_is_valid_input(capsys, tmp_path):
    """A unit arc with one vertex moved 1e3 to 1e12 away is ordinary
    digitizing damage: compress must not report it as bad input (exit 2),
    which rounded two-anchor ratio coefficients used to cause."""
    rng = np.random.default_rng(2024)
    path = tmp_path / "far.txt"
    for _ in range(100):
        t0 = rng.uniform(0, 2 * math.pi)
        pts = circle_points(af.Circle(0, 0, 1), t0,
                            t0 + rng.uniform(1.0, 3.0), 12)
        angle = rng.uniform(0, 2 * math.pi)
        pts[rng.integers(12)] += 10.0 ** rng.uniform(3, 12) * np.array(
            [math.cos(angle), math.sin(angle)])
        write_points(path, pts)
        code, out, err = run(capsys, "compress", str(path), "--tol", "1e-3")
        assert code == 0, err
        assert strict_json(out)["primitives"][-1]["j"] == 11


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity extensions."""
    def refuse(token):
        raise ValueError(f"non-finite number {token} in output")
    return json.loads(text, parse_constant=refuse)


# (offset, spread) of the test arc: tiny and huge, at and away from the origin
EXTREME_SCALES = [(0.0, 1e-150), (3e-150, 1e-150), (0.0, 1e150), (3e150, 1e150)]


class TestExtremeScales:
    """Well-posed input at any coordinate scale gets a finite result: no
    traceback, no non-finite number and no spurious degenerate exit."""

    @pytest.mark.parametrize("offset,spread", EXTREME_SCALES)
    @pytest.mark.parametrize("n_anchors", [0, 1, 2])
    def test_fit(self, capsys, tmp_path, offset, spread, n_anchors):
        truth = af.Circle(offset, -offset, spread)
        pts = circle_points(truth, 0.3, 2.4, 30)
        pts += np.random.default_rng(7).normal(0, 1e-2 * spread, pts.shape)
        path = tmp_path / "arc.txt"
        write_points(path, pts)
        anchors = [f"--through={float(x)!r},{float(y)!r}"
                   for x, y in (pts[0], pts[-1])]
        code, out, err = run(capsys, "fit", str(path), *anchors[:n_anchors])
        assert code == 0, err
        report = strict_json(out)
        assert report["radius"] == pytest.approx(spread, rel=2e-2)
        assert report["center"] == pytest.approx(
            [offset, -offset], abs=2e-2 * spread)
        assert report["penalty"] == pytest.approx(report["exact_sse"], rel=0.1)
        for anchor in report["anchors"]:
            dist = math.hypot(anchor[0] - report["center"][0],
                              anchor[1] - report["center"][1])
            assert dist == pytest.approx(report["radius"], rel=1e-9)

    @pytest.mark.parametrize("offset,spread", EXTREME_SCALES)
    def test_compress(self, capsys, tmp_path, offset, spread):
        arc = circle_points(af.Circle(offset, offset, spread), 0, math.pi, 16)
        tail = [(offset - spread, offset - k * spread) for k in (1, 2, 3)]
        path = tmp_path / "poly.txt"
        write_points(path, list(map(tuple, arc)) + tail)
        code, out, err = run(capsys, "compress", str(path),
                             f"--tol={1e-6 * spread!r}")
        assert code == 0, err
        report = strict_json(out)
        assert (report["arcs"], report["segments"]) == (1, 1)
        assert report["primitives"][0]["radius"] == pytest.approx(
            spread, rel=1e-9)


# Inputs whose fits overflow a float: squared deviations of these points
# from any circle near them are beyond the float range.
OFFSET_ARC = circle_points(af.Circle(1e200, 1e200, 1e185), 0.3, 2.4, 7)
HUGE_ARC = circle_points(af.Circle(0.0, 0.0, 1e308), 0.0, math.pi, 7)
MIXED_SCALES = [(1e300, 1e300), (-1e300, 1e300), (1e-300, -1e-300),
                (-1e-300, 1e-300), (1e300, -1e300), (-1e300, -1e-300),
                (1e-300, 1e300)]
HUGE_SQUARE = [(1e308, 1e308), (-1e308, 1e308), (-1e308, -1e308),
               (1e308, -1e308), (1e308, 1e308)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOutOfFloatRange:
    """Beyond the float range a command either exits 0 with finite JSON or
    exits 3 with a message: no traceback and no NaN or Infinity on stdout.
    (numpy warns about the overflow on the way.)"""

    def run_points(self, capsys, tmp_path, pts, *argv):
        path = tmp_path / "pts.txt"
        write_points(path, pts)
        return run(capsys, argv[0], str(path), *argv[1:])

    def assert_out_of_range(self, capsys, tmp_path, pts, *argv):
        code, out, err = self.run_points(capsys, tmp_path, pts, *argv)
        assert code == 3, (out, err)
        assert out == ""
        assert "result outside the float range" in err

    def test_fit_offset_arc(self, capsys, tmp_path):
        self.assert_out_of_range(capsys, tmp_path, OFFSET_ARC, "fit")

    def test_compress_offset_arc(self, capsys, tmp_path):
        # Coordinate rounding at 1e200 is about 1e184, far above the
        # tolerance, so no primitive longer than one step fits.
        code, out, err = self.run_points(capsys, tmp_path, OFFSET_ARC,
                                         "compress", "--tol=1e179")
        assert code == 0, err
        report = strict_json(out)
        assert (report["segments"], report["arcs"]) == (6, 0)

    def test_compress_huge_arc(self, capsys, tmp_path):
        self.assert_out_of_range(capsys, tmp_path, HUGE_ARC,
                                 "compress", "--tol=1e302")

    def test_fit_huge_arc_through_corner(self, capsys, tmp_path):
        self.assert_out_of_range(capsys, tmp_path, HUGE_ARC, "fit",
                                 "--through=1e308,1e308")

    def test_two_point_fit_mixed_scales(self, capsys, tmp_path):
        self.assert_out_of_range(capsys, tmp_path, MIXED_SCALES, "fit",
                                 "--through=0,0", "--through=1,0")

    def test_compress_mixed_scales(self, capsys, tmp_path):
        code, out, err = self.run_points(capsys, tmp_path, MIXED_SCALES,
                                         "compress", "--tol=1")
        assert code == 0, err
        assert strict_json(out)["ssd"] == 0.0

    def test_two_point_fit_chord_beyond_float_range(self, capsys, tmp_path):
        self.assert_out_of_range(capsys, tmp_path, HUGE_SQUARE, "fit",
                                 "--through=1e308,1e308",
                                 "--through=-1e308,1e308")


class TestCompareCommand:
    def test_deterministic_csv(self, capsys):
        args = ("compare", "--trials", "2", "--points", "120", "--seed", "11")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        header = first.splitlines()[0].split(",")
        assert header[:4] == ["trial", "r_kasa", "r_free", "r_geom"]

    def test_zero_noise_recovers_truth_exactly(self, capsys):
        code, out, _ = run(capsys, "compare", "--trials", "2", "--points",
                           "200", "--noise", "0", "--format", "json")
        assert code == 0
        report = json.loads(out)
        for row in report["trials"]:
            for key in ("r_kasa", "r_free", "r_geom"):
                assert row[key] == pytest.approx(1.0, rel=1e-9)
            for key in ("center_err_kasa", "center_err_free", "center_err_geom"):
                assert row[key] == pytest.approx(0.0, abs=1e-9)

    def test_aggregate_fields(self, capsys):
        code, out, _ = run(capsys, "compare", "--trials", "3", "--points",
                           "150", "--format", "json")
        assert code == 0
        agg = json.loads(out)["aggregate"]
        assert set(agg) == {"true_radius", "mean_r_kasa", "mean_r_free",
                            "mean_r_geom", "frac_free_closer_than_kasa"}

    def test_radius_near_float_max_keeps_finite_means(self, capsys):
        # Every fit is finite, but the sum of two radii overflows; the means
        # are taken without it, and numpy must not warn on the way.
        ratio = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for radius in ("1", "1e308"):
                code, out, err = run(capsys, "compare", "--radius", radius,
                                     "--trials", "2", "--points", "50",
                                     "--format", "json")
                assert code == 0, err
                agg = json.loads(out)["aggregate"]
                ratio[radius] = agg["mean_r_geom"] / agg["true_radius"]
        assert ratio["1e308"] == pytest.approx(ratio["1"], rel=1e-9)

    def test_short_noisy_arcs_settle(self, capsys):
        # A 20-degree arc with 10% noise: Gauss-Newton steps alone run out
        # of iterations on trial 24 of this seed.
        code, _, err = run(capsys, "compare", "--span", "20", "--noise", "0.1",
                           "--points", "1000", "--trials", "50", "--seed", "999")
        assert code == 0, err

    def test_geometric_fit_keeps_its_scale_where_squares_overflow(self, capsys):
        # From about R = 1e155 the squared residuals overflow; the geometric
        # fit then runs on the points scaled by a power of two.
        ratio = {}
        for radius in ("1", "1e160", "1e300"):
            code, out, _ = run(capsys, "compare", "--radius", radius,
                               "--trials", "2", "--points", "50",
                               "--format", "json")
            assert code == 0
            agg = json.loads(out)["aggregate"]
            ratio[radius] = agg["mean_r_geom"] / agg["true_radius"]
        assert ratio["1e160"] == pytest.approx(ratio["1"], rel=1e-9)
        assert ratio["1e300"] == pytest.approx(ratio["1"], rel=1e-9)

    def test_bad_flag_value_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--trials", "x"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestEntryPoint:
    def test_parser_is_shared_and_anchors_do_not_leak(self, capsys,
                                                      unit_circle_file):
        assert cli._parser() is cli._parser()
        code, out, _ = run(capsys, "fit", str(unit_circle_file),
                           "--through=1,0")
        assert code == 0
        assert json.loads(out)["anchors"] == [[1.0, 0.0]]
        code, out, _ = run(capsys, "fit", str(unit_circle_file))
        assert code == 0
        report = json.loads(out)
        assert (report["mode"], report["anchors"]) == ("free", [])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == af.__version__
