import json
import math

import numpy as np
import pytest

import arcfit as af
from arcfit.cli import main
from arcfit.pointfile import parse_points, read_points, write_points

from helpers import circle_points


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
        assert parse_points(text) == [(1.0, 2.0), (3.5, -0.4)]

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_points("0 0\n1 2 3\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_points("a b\n")

    def test_round_trip(self, tmp_path):
        pts = [(0.1, -2.25), (1e-17, 3.0)]
        path = tmp_path / "pts.txt"
        write_points(path, pts)
        assert read_points(path) == pts


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

    def test_degenerate_fit_exit_code(self, capsys, tmp_path):
        line = tmp_path / "line.txt"
        write_points(line, [(t, 2 * t) for t in np.linspace(0, 1, 12)])
        code, _, err = run(capsys, "fit", str(line))
        assert code == 3
        assert "CollinearOrDegenerate" in err

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

    def test_bad_flag_value_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--trials", "x"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == af.__version__
