import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qharm
from qharm import (
    CSVFormatError,
    LatticeFunction,
    QLattice,
    lattice_function_to_csv,
    load_lattice_function,
    read_lattice_function,
    report_to_json,
    save_lattice_function,
)
from qharm.cli import main
from qharm.testfunctions import gaussian_density, nonneg_density, random_compact


def roundtrip(f, q):
    return read_lattice_function(io.StringIO(lattice_function_to_csv(f)), q)


class TestCSV:
    def test_roundtrip_real(self, rng):
        lat = QLattice(0.5, -3, 7)
        f = LatticeFunction(lat, rng.uniform(-2, 2, lat.size))
        g = roundtrip(f, 0.5)
        np.testing.assert_array_equal(f.values, g.values)
        assert g.value_at_zero is None

    def test_roundtrip_complex_with_origin(self, rng):
        lat = QLattice(0.5, -3, 7)
        vals = rng.uniform(-1, 1, lat.size) + 1j * rng.uniform(-1, 1, lat.size)
        f = LatticeFunction(lat, vals, value_at_zero=1.25 - 0.5j)
        g = roundtrip(f, 0.5)
        np.testing.assert_array_equal(f.values, g.values)
        assert g.value_at_zero == 1.25 - 0.5j

    def test_deterministic_bytes(self, rng):
        lat = QLattice(0.9, -5, 12)
        f = LatticeFunction(lat, rng.uniform(-1, 1, lat.size), value_at_zero=0.75)
        assert lattice_function_to_csv(f) == lattice_function_to_csv(f)
        # serialize -> parse -> serialize is byte-identical
        assert lattice_function_to_csv(roundtrip(f, 0.9)) == lattice_function_to_csv(f)

    def test_file_helpers(self, tmp_path, rng):
        lat = QLattice(0.5, -2, 5)
        f = LatticeFunction(lat, rng.uniform(-1, 1, lat.size))
        path = str(tmp_path / "f.csv")
        save_lattice_function(f, path)
        g = load_lattice_function(path, 0.5)
        np.testing.assert_array_equal(f.values, g.values)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("a,b,c,d\n", 1),
            ("n,x,re,im\n", 2),
            ("n,x,re,im\n0,1.0,oops,0.0\n", 2),
            ("n,x,re,im\n0,1.0,1.0\n", 2),
            ("n,x,re,im\n0,1.0,1.0,0.0\n2,0.25,1.0,0.0\n", 3),
            ("n,x,re,im\n0,1.5,1.0,0.0\n", 2),
            ("n,x,re,im\n0,1.0,1.0,0.0\n,0.5,2.0,0.0\n", 3),
            ("n,x,re,im\n,0,2.0,0.0\n,0,2.0,0.0\n0,1.0,1.0,0.0\n", 3),
            ("n,x,re,im\n,0,2.0,0.0\n0,1.0,1.0,0.0\n", 3),
        ],
        ids=[
            "empty",
            "bad-header",
            "no-rows",
            "bad-float",
            "short-row",
            "index-gap",
            "x-mismatch",
            "origin-x-nonzero",
            "duplicate-origin",
            "origin-not-last",
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(CSVFormatError) as exc:
            read_lattice_function(io.StringIO(text), 0.5)
        assert exc.value.line == line

    def test_blank_lines_ignored(self):
        text = "n,x,re,im\n\n0,1.0,1.0,0.0\n\n1,0.5,2.0,0.0\n"
        f = read_lattice_function(io.StringIO(text), 0.5)
        assert f.lattice.n_min == 0 and f.lattice.n_max == 1

    def test_report_json_non_finite_as_strings(self):
        payload = {
            "a": float("inf"),
            "b": np.float64(-np.inf),
            "c": np.nan,
            "z": complex(np.inf, np.nan),
        }
        assert _strict_json(report_to_json(payload)) == {
            "a": "inf",
            "b": "-inf",
            "c": "nan",
            "z": {"re": "inf", "im": "nan"},
        }

    def test_report_json_deterministic(self):
        payload = {"b": 1.0, "a": complex(1, 2), "arr": np.arange(3)}
        assert report_to_json(payload) == report_to_json(payload)
        parsed = json.loads(report_to_json(payload))
        assert parsed["a"] == {"re": 1.0, "im": 2.0}
        assert parsed["arr"] == [0, 1, 2]


@pytest.fixture
def compact_csv(tmp_path, rng):
    lat = QLattice(0.5, -20, 60)
    f = random_compact(lat, rng)
    path = str(tmp_path / "in.csv")
    save_lattice_function(f, path)
    return path, f


class TestCLIEval:
    def test_jv_at_zero_is_one(self, capsys):
        assert main(["eval", "jv", "--z", "0", "--qbase", "0.25", "--v", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize("qbase", ["0.98", "0.9604"])
    def test_jv_refuses_cancelled_series(self, qbase, capsys):
        # z = 1.5 is off the lattice {q^m} of either base
        assert main(["eval", "jv", "--z", "1.5", "--qbase", qbase]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "loses precision" in captured.err

    def test_jv_cancelling_lattice_argument_served_from_table(self, capsys):
        # z = 1 = q^0; the series alone gives 1.4e24 here
        assert main(["eval", "jv", "--z", "1.0", "--qbase", "0.98"]) == 0
        # mpmath: j_0(1, 0.98) = 0.0573654311691302...
        assert float(capsys.readouterr().out) == pytest.approx(0.0573654311691302, rel=1e-12)

    def test_jv_accurate_series_still_printed(self, capsys):
        # mpmath: j_0(1, 0.81) = -0.2301898345013299...
        assert main(["eval", "jv", "--z", "1.0", "--q", "0.9"]) == 0
        assert capsys.readouterr().out == "-0.230189834501241\n"

    def test_finite_pochhammer(self, capsys):
        assert main(["eval", "pochhammer", "--a", "0.5", "--q", "0.5", "--n", "1"]) == 0
        assert float(capsys.readouterr().out) == 0.5

    def test_c_qv_closed_form(self, capsys):
        assert main(["eval", "c_qv", "--q", "0.5", "--v", "0"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0, rel=1e-14)

    def test_qexp(self, capsys):
        assert main(["eval", "qexp", "--z", "0.25", "--qbase", "0.25"]) == 0
        from qharm import q_exponential

        assert float(capsys.readouterr().out) == pytest.approx(
            q_exponential(0.25, 0.25), rel=1e-14
        )

    @pytest.mark.parametrize("function", ["qexp", "jv"])
    @pytest.mark.parametrize("qbase", ["0", "1", "1.5", "-0.5"])
    def test_base_outside_unit_interval_is_refused(self, function, qbase, capsys):
        # --qbase 0 is a given base, not an omitted one
        assert main(["eval", function, "--z", "0.3", "--qbase", qbase, "--q", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must lie in (0,1)" in captured.err

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "jv"])
        assert exc.value.code == 2

    def test_output_file(self, tmp_path):
        path = str(tmp_path / "out.txt")
        assert main(["eval", "c_qv", "--q", "0.5", "--output", path]) == 0
        assert open(path).read().strip() == "2"


class TestCLITransform:
    def test_zero_in_zero_out(self, tmp_path, capsys):
        lat = QLattice(0.5, -20, 60)
        path = str(tmp_path / "z.csv")
        save_lattice_function(LatticeFunction.zero(lat), path)
        assert main(["transform", path]) == 0
        out = capsys.readouterr().out
        g = read_lattice_function(io.StringIO(out), 0.5)
        assert np.all(g.values == 0.0)

    def test_deterministic_bytes(self, compact_csv, tmp_path):
        path, _ = compact_csv
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["transform", path, "--output", out1]) == 0
        assert main(["transform", path, "--output", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_transform_twice_recovers_interior(self, compact_csv, tmp_path):
        from qharm.transform import interior_slice

        path, f = compact_csv
        mid = str(tmp_path / "mid.csv")
        back = str(tmp_path / "back.csv")
        assert main(["transform", path, "--output", mid]) == 0
        assert main(["transform", mid, "--output", back]) == 0
        g = load_lattice_function(back, 0.5)
        sl = interior_slice(f.lattice)
        assert np.abs(g.values[sl] - f.values[sl]).max() < 1e-8

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("n,x,re,im\n0,1.0,nope,0\n")
        assert main(["transform", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["transform", "/nonexistent/f.csv"]) == 2

    def test_convolve_routes_agree(self, compact_csv, tmp_path, rng):
        path, f = compact_csv
        other = str(tmp_path / "g.csv")
        save_lattice_function(random_compact(f.lattice, rng), other)
        o1, o2 = str(tmp_path / "s.csv"), str(tmp_path / "d.csv")
        assert main(["convolve", path, other, "--route", "spectral", "--output", o1]) == 0
        assert main(["convolve", path, other, "--route", "direct", "--output", o2]) == 0
        a = load_lattice_function(o1, 0.5)
        b = load_lattice_function(o2, 0.5)
        assert np.abs(a.values - b.values).max() < 1e-8


class TestCLIArithmeticRefusals:
    # at q = 0.1 the Miller chain below m = -2 * 80 needs q^{2m+2} past the
    # double range, which raises OverflowError in the kernel table
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--q", "0.1", "--nmin", "-80", "--nmax", "20", "--only", "Prop1"],
            ["probe-qv", "--q", "0.1", "--nmin", "-80", "--nmax", "5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_overflow_exits_2_without_traceback(self, argv):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qharm.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "qharm.cli", *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"{argv[0]}: ") and done.stderr.count("\n") == 1


class TestCLIJudgements:
    def test_probe_qv_json_shape(self, capsys):
        assert main(["probe-qv", "--q", "0.5", "--v", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"min_value", "witness", "verdict"}
        assert payload["witness"] is None

    def test_probe_qv_scans_the_requested_window(self, capsys):
        # --nmin -20 is the default of the other commands; probe-qv must
        # still scan it when it is given explicitly
        from qharm import qv_membership_probe
        from qharm.qlattice import QParams

        main(["probe-qv", "--q", "0.5", "--nmin", "-20", "--nmax", "20"])
        payload = json.loads(capsys.readouterr().out)
        report = qv_membership_probe(QParams(q=0.5), QLattice(0.5, -20, 20))
        assert payload["min_value"] == report.min_value
        assert payload["witness"] == (list(report.witness) if report.witness else None)

    def test_positivity_positive_verdict(self, tmp_path, capsys, rng):
        from qharm import build_transform_table, fourier_transform
        from qharm.qlattice import QParams

        lat = QLattice(0.5, -20, 60)
        table = build_transform_table(QParams(q=0.5), lat)
        phi = fourier_transform(nonneg_density(lat, rng), table)
        path = str(tmp_path / "phi.csv")
        save_lattice_function(phi, path)
        assert main(["positivity", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "POSITIVE"
        assert payload["witness_coefficients"] is None

    def test_positivity_negative_verdict(self, tmp_path, capsys):
        from qharm import build_transform_table, fourier_transform
        from qharm.qlattice import QParams

        lat = QLattice(0.5, -20, 60)
        table = build_transform_table(QParams(q=0.5), lat)
        vals = np.zeros(lat.size)
        vals[lat.index_of(2)] = 1.0
        vals[lat.index_of(4)] = -1.0
        phi = fourier_transform(LatticeFunction(lat, vals), table)
        path = str(tmp_path / "phi.csv")
        save_lattice_function(phi, path)
        assert main(["positivity", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "NEGATIVE"
        assert payload["witness_coefficients"] is not None

    def test_positivity_negative_points_with_equals(self, phi_csv, capsys):
        # "--points -2,0,3" reads as a missing value; the = form is the way in
        assert main(["positivity", phi_csv, "--points=-2,0,3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["point_exponents"] == [-2, 0, 3]
        assert payload["verdict"] == "POSITIVE"
        with pytest.raises(SystemExit) as exc:
            main(["positivity", phi_csv, "--points", "-2,0,3"])
        assert exc.value.code == 2

    def test_positivity_empty_points_refused(self, phi_csv, capsys):
        # "--points=" names an empty grid: refused, not the default grid
        assert main(["positivity", phi_csv, "--points="]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least one point" in captured.err

    @pytest.mark.parametrize("points", ["999", "0,1,999"])
    def test_positivity_out_of_window_points_refused(self, phi_csv, capsys, points):
        # the window of phi.csv is [-20, 60]: one stderr line names 999
        assert main(["positivity", phi_csv, f"--points={points}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "positivity: row exponent 999 outside the window [-20, 60]\n"

    def test_bochner_requires_origin_row(self, compact_csv, capsys):
        path, _ = compact_csv  # written without origin row
        assert main(["bochner", path]) == 2

    def test_bochner_gaussian(self, tmp_path, capsys):
        from qharm import build_transform_table, fourier_transform
        from qharm.qlattice import QParams

        lat = QLattice(0.5, -20, 60)
        table = build_transform_table(QParams(q=0.5), lat)
        phi = fourier_transform(gaussian_density(table, width_exp=1), table)
        path = str(tmp_path / "phi.csv")
        out = str(tmp_path / "measure.csv")
        save_lattice_function(phi, path)
        assert main(["bochner", path, "--output", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accepted"] is True
        recovered = load_lattice_function(out, 0.5)
        assert np.all(np.real(recovered.values) >= -1e-12)

    def test_bochner_rejects_negated_function(self, tmp_path, capsys):
        from qharm import build_transform_table, fourier_transform
        from qharm.qlattice import QParams

        lat = QLattice(0.5, -20, 60)
        table = build_transform_table(QParams(q=0.5), lat)
        phi = fourier_transform(gaussian_density(table, width_exp=1), table)
        path = str(tmp_path / "negphi.csv")
        save_lattice_function(
            LatticeFunction(lat, -phi.values, value_at_zero=-phi.value_at_zero), path
        )
        assert main(["bochner", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["accepted"] is False
        assert "phi(0)" in payload["rejection_reason"]


# options each subcommand used to accept without reading them
_DROPPED_OPTIONS = [
    (cmd, opt)
    for cmds, opts in (
        (("eval", "transform", "convolve"), ("--nmin", "--nmax", "--tol")),
        (("positivity", "bochner"), ("--nmin", "--nmax")),
    )
    for cmd in cmds
    for opt in opts
]


@pytest.fixture
def phi_csv(tmp_path):
    """A positive-type function with its origin row, valid input for every
    subcommand that reads a CSV."""
    from qharm import build_transform_table, fourier_transform
    from qharm.qlattice import QParams

    table = build_transform_table(QParams(q=0.5), QLattice(0.5, -20, 60))
    path = str(tmp_path / "phi.csv")
    save_lattice_function(fourier_transform(gaussian_density(table, width_exp=1), table), path)
    return path


class TestCLIOptions:
    @pytest.mark.parametrize("command, option", _DROPPED_OPTIONS)
    def test_unread_option_is_refused(self, command, option, phi_csv, capsys):
        head = {
            "eval": ["eval", "c_qv"],
            "transform": ["transform", phi_csv],
            "convolve": ["convolve", phi_csv, phi_csv],
            "positivity": ["positivity", phi_csv],
            "bochner": ["bochner", phi_csv],
        }[command]
        value = {"--nmin": "-5", "--nmax": "5", "--tol": "1e-3"}[option]
        with pytest.raises(SystemExit) as exc:
            main(head + [option, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_tolerance_defaults_are_the_library_defaults(self, phi_csv, capsys):
        from qharm.operators import DEFAULT_PROBE_TOL
        from qharm.positivity import DEFAULT_PSD_TOL

        assert main(["positivity", phi_csv]) == 0
        out = capsys.readouterr().out
        assert '"tolerance": 1e-09' in out
        assert json.loads(out)["tolerance"] == DEFAULT_PSD_TOL
        assert main(["probe-qv", "--q", "0.5"]) == 0
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict == f"no negativity detected at tolerance -{DEFAULT_PROBE_TOL:g}"


def _strict_json(text):
    """json.loads that refuses the non-standard constants NaN and Infinity."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestStrictJSON:
    def test_failed_verify_prints_strict_json(self, capsys):
        # both statements fail with an infinite measured error at q = 0.9
        assert main(["verify", "--q", "0.9", "--only", "Cor2,Thm4-roundtrip"]) == 1
        entries = _strict_json(capsys.readouterr().out)["entries"]
        errors = {e["statement_id"]: e["measured_error"] for e in entries}
        assert errors["Cor2"] == errors["Thm4-roundtrip"] == "inf"

    def test_rejected_bochner_prints_strict_json(self, tmp_path, capsys):
        from qharm import build_transform_table, fourier_transform
        from qharm.qlattice import QParams

        lat = QLattice(0.5, -20, 60)
        table = build_transform_table(QParams(q=0.5), lat)
        phi = fourier_transform(gaussian_density(table, width_exp=1), table)
        path = str(tmp_path / "negphi.csv")
        save_lattice_function(
            LatticeFunction(lat, -phi.values, value_at_zero=-phi.value_at_zero), path
        )
        assert main(["bochner", path]) == 1
        payload = _strict_json(capsys.readouterr().out)
        assert payload["accepted"] is False
        assert payload["reconstruction_error"] == "inf"


class TestCLIVerify:
    def test_only_single_statement_passes(self, capsys):
        assert main(["verify", "--only", "Prop1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_id = {e["statement_id"]: e for e in payload["entries"]}
        assert by_id["Prop1"]["status"] == "pass"
        assert by_id["Prop2"]["status"] == "skip"

    def test_impossible_tolerance_fails_with_repro(self, capsys):
        assert main(["verify", "--only", "Prop1", "--tol", "1e-30"]) == 1
        payload = json.loads(capsys.readouterr().out)
        by_id = {e["statement_id"]: e for e in payload["entries"]}
        assert by_id["Prop1"]["status"] == "fail"
        assert "--only Prop1" in by_id["Prop1"]["repro"]

    def test_runtime_in_thousandths_of_a_millisecond(self, capsys):
        assert main(["verify", "--only", "Prop1"]) == 0
        by_id = {e["statement_id"]: e for e in json.loads(capsys.readouterr().out)["entries"]}
        ms = by_id["Prop1"]["runtime_ms"]
        assert isinstance(ms, float) and 0.0 < ms == round(ms, 3)
        assert by_id["Prop2"]["runtime_ms"] == 0.0

    def test_verify_deterministic(self, capsys):
        assert main(["verify", "--only", "Prop1,Prop2"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--only", "Prop1,Prop2"]) == 0
        second = capsys.readouterr().out
        # runtimes differ between runs; everything else must match
        a, b = json.loads(first), json.loads(second)
        for e in a["entries"] + b["entries"]:
            e["runtime_ms"] = 0.0
        assert a == b
