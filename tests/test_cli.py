import json
import time
from math import comb

import pytest

from facevol import SpectrumSpec, family, jacobian, kneser, simplex
from facevol.cli import build_parser, main
from conftest import FLAT_4_SIMPLEX, SINGULAR_STEP_TARGET, whole_only_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def tri_path(tmp_path):
    return write_spec(tmp_path, "tri.json", {"n": 2, "squared_lengths": [9, 16, 25]})


def test_volume_command(capsys, tri_path):
    code, out, _ = run(capsys, "volume", "--input", tri_path)
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "1"
    assert report["volume"] == pytest.approx(6.0, rel=1e-15)


def test_volume_face_flag(capsys, tri_path):
    code, out, _ = run(capsys, "volume", "--input", tri_path, "--face", "1,2")
    assert code == 0
    assert json.loads(out)["squared_volume"] == pytest.approx(9.0)


@pytest.mark.parametrize("face", ["0,1", "4"])
def test_volume_face_outside_vertex_range_is_usage_error(capsys, tri_path, face):
    code, out, err = run(capsys, "volume", "--input", tri_path, "--face", face)
    assert code == 2
    assert out == ""
    assert err.startswith("facevol volume:") and "1..3" in err
    assert err.count("\n") == 1


def test_volume_empty_face_is_usage_error(capsys, tri_path, tmp_path):
    out_path = tmp_path / "never.json"
    argv = ["volume", "--input", tri_path, "--face", "", "--output", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "facevol volume: bad face ''; expected comma-separated vertex labels\n"
    assert not out_path.exists()


def test_volume_accepts_rational_strings(capsys, tmp_path):
    path = write_spec(
        tmp_path, "exact.json", {"n": 2, "squared_lengths": ["1/2", "1/2", 1]}
    )
    code, out, _ = run(capsys, "volume", "--input", path)
    assert code == 0
    assert json.loads(out)["squared_volume"] == pytest.approx(1 / 16)


def test_faces_command(capsys, tmp_path):
    path = write_spec(tmp_path, "reg4.json", {"n": 4, "squared_lengths": [1] * 10})
    code, out, _ = run(capsys, "faces", "--input", path, "--face-dim", "2")
    assert code == 0
    report = json.loads(out)
    assert len(report["keys"]) == 10
    assert report["keys"][0] == [1, 2]
    assert report["values"][0] == pytest.approx(3**0.5 / 4)


def test_realizable_exit_codes(capsys, tmp_path):
    good = write_spec(tmp_path, "good.json", {"n": 3, "squared_lengths": [1] * 6})
    bad = write_spec(
        tmp_path, "bad.json", {"n": 3, "squared_lengths": [1, 1, 1, 1, 1, 10]}
    )
    code, out, _ = run(capsys, "realizable", "--input", good)
    assert code == 0 and json.loads(out)["realizable"] is True
    code, out, _ = run(capsys, "realizable", "--input", bad)
    assert code == 1 and json.loads(out)["realizable"] is False


def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["eigenvalues"] == [3, 1, -2]
    assert report["multiplicities"] == [1, 5, 4]
    assert report["det"] == "48"
    assert report["annihilation"] is True


@pytest.mark.parametrize("n, k", [(5, 3), (7, 4)])
def test_spectrum_at_perfect_matching_boundary(capsys, n, k):
    # 2k = n+1: K(n+1,k) is a perfect matching and the eigenvalues repeat
    code, out, _ = run(capsys, "spectrum", "--n", str(n), "--k", str(k))
    assert code == 0
    report = json.loads(out)
    assert sum(report["multiplicities"]) == comb(n + 1, k)
    assert report["annihilation"] is True


@pytest.mark.parametrize("n, k", [(4, 2), (6, 3)])
def test_spectrum_wrong_multiplicity_is_caught(capsys, monkeypatch, n, k):
    right = kneser.predicted_spectrum(n, k)
    wrong = SpectrumSpec(right.eigenvalues, right.multiplicities[::-1])
    monkeypatch.setattr(kneser, "predicted_spectrum", lambda n, k: wrong)
    with pytest.raises(ArithmeticError):
        kneser.spectrum_report(n, k)
    code, out, err = run(capsys, "spectrum", "--n", str(n), "--k", str(k))
    assert code == 2
    assert out == "" and err.startswith("facevol spectrum: trace of M^")


def test_spectrum_annihilation_failure_is_usage_error(capsys, monkeypatch):
    # 2^3 + 0^5 + (-3)^2 matches the Petersen graph's traces 10, 0, 30, but 0
    # and 2 are not eigenvalues of it, so prod(M - lam I) cannot vanish
    wrong = SpectrumSpec((2, 0, -3), (3, 5, 2))
    monkeypatch.setattr(kneser, "predicted_spectrum", lambda n, k: wrong)
    with pytest.raises(ArithmeticError, match="is not zero"):
        kneser.spectrum_report(4, 2)
    code, out, err = run(capsys, "spectrum", "--n", "4", "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("facevol spectrum: prod(M - lam I) over the eigenvalues [2, 0, -3]")
    assert err.count("\n") == 1


def test_spectrum_missing_k(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "4")
    assert code == 2
    assert "spectrum" in err


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--n", "4"], "--k"),
    (["spectrum", "--k", "2"], "--n"),
    (["counterexample", "--x", "0.5"], "--n"),
    (["sweep"], "--n"),
    (["faces", "--input", "spec.json"], "--face-dim"),
])
def test_missing_required_flag_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: the following arguments are required: {flag}" in err


@pytest.mark.parametrize("argv, message", [
    (["jacobian"], "one of the arguments --n --input is required"),
    (["jacobian", "--n", "4", "--input", "spec.json"], "argument --input: not allowed with argument --n"),
    (["counterexample", "--n", "4"], "one of the arguments --x --t is required"),
    (["counterexample", "--n", "4", "--x", "0.5", "--t", "2"], "argument --t: not allowed with argument --x"),
])
def test_mode_flags_are_exclusive(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_jacobian_regular_point(capsys):
    code, out, _ = run(capsys, "jacobian", "--n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 10
    assert report["max_abs_deviation"] <= 1e-9
    assert report["passed"] is True


def test_jacobian_rank_mode(capsys, tmp_path):
    path = write_spec(tmp_path, "reg5.json", {"n": 5, "squared_lengths": [1] * 15})
    code, out, _ = run(capsys, "jacobian", "--input", path)
    assert code == 0
    assert json.loads(out)["rank"] == 15


def test_jacobian_tol_sets_regular_point_tolerance(capsys):
    _, out, _ = run(capsys, "jacobian", "--n", "4")
    assert json.loads(out)["tol"] == 1e-9
    _, out, _ = run(capsys, "jacobian", "--n", "4", "--tol", "1e-3")
    assert json.loads(out)["tol"] == 1e-3


def test_jacobian_tol_with_input_is_usage_error(capsys, tmp_path):
    # the rank mode has no tolerance: the flag is refused, not dropped
    path = write_spec(tmp_path, "reg4.json", {"n": 4, "squared_lengths": [1] * 10})
    code, out, err = run(capsys, "jacobian", "--input", path, "--tol", "1e-3")
    assert code == 2 and out == ""
    assert err == "facevol jacobian: argument --tol: not allowed with argument --input\n"


def test_jacobian_requires_mode(capsys):
    code, _, err = run(capsys, "jacobian")
    assert code == 2 and "jacobian" in err


def test_counterexample_pass(capsys):
    code, out, _ = run(capsys, "counterexample", "--n", "4", "--x", "0.5", "--tol", "1e-10")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["t_minus"] == pytest.approx(1.5)
    assert report["t_plus"] == pytest.approx(2.5)


def test_counterexample_instance_mode(capsys):
    code, out, _ = run(capsys, "counterexample", "--n", "4", "--t", "2.0")
    assert code == 0
    report = json.loads(out)
    assert report["value_regular"] == pytest.approx(3**0.5 / 4)
    assert report["value_special"] == pytest.approx(0.5)


def test_counterexample_tol_sets_pair_tolerance(capsys):
    _, out, _ = run(capsys, "counterexample", "--n", "4", "--x", "0.5")
    assert json.loads(out)["tol"] == 1e-10
    _, out, _ = run(capsys, "counterexample", "--n", "4", "--x", "0.5", "--tol", "1e-3")
    assert json.loads(out)["tol"] == 1e-3


def test_counterexample_tol_with_t_is_usage_error(capsys):
    # one instance has no tolerance: the flag is refused, not dropped
    code, out, err = run(capsys, "counterexample", "--n", "4", "--t", "2.0", "--tol", "0.5")
    assert code == 2 and out == ""
    assert err == "facevol counterexample: argument --tol: not allowed with argument --t\n"


def test_counterexample_domain_error(capsys):
    code, _, err = run(capsys, "counterexample", "--n", "4", "--x", "0.7")
    assert code == 2 and "x must lie" in err


@pytest.mark.parametrize("argv, message", [
    (["counterexample", "--n", "1000", "--x", "0.5"], f"family dimension 1000 is above the limit of {family.MAX_N}"),
    (["counterexample", "--n", "1000", "--t", "1.0"], f"family dimension 1000 is above the limit of {family.MAX_N}"),
    (["sweep", "--n", "1000"], f"family dimension 1000 is above the limit of {family.MAX_N}"),
    (["sweep", "--n", "4", "--count", "1000000000"],
     f"count 1000000000 is above the limit of {family.MAX_SWEEP_COUNT}"),
])
def test_family_limits_are_usage_errors(capsys, argv, message):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert err == f"facevol {argv[0]}: {message}\n"


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "4", "--count", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,x,t_minus,t_plus,max_facevol_reldiff,vol_minus,vol_plus,vol_reldiff"
    assert len(lines) == 4
    assert lines[1].startswith("4,")


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "4", "--count", "2", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 2


def test_repeated_invocation_byte_identical(capsys):
    _, first, _ = run(capsys, "spectrum", "--n", "5", "--k", "2")
    _, second, _ = run(capsys, "spectrum", "--n", "5", "--k", "2")
    assert first == second
    _, first, _ = run(capsys, "sweep", "--n", "4", "--count", "2")
    _, second, _ = run(capsys, "sweep", "--n", "4", "--count", "2")
    assert first == second


def test_invert_command(capsys, tmp_path):
    path = write_spec(tmp_path, "reg4.json", {"n": 4, "squared_lengths": [1] * 10})
    code, out, _ = run(capsys, "invert", "--input", path, "--starts", "3", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["clusters"]
    assert report["clusters"][0]["converged"] is True


def test_output_file_matches_stdout(capsys, tmp_path, tri_path):
    _, stdout_text, _ = run(capsys, "volume", "--input", tri_path)
    out_path = tmp_path / "report.json"
    code = main(["volume", "--input", tri_path, "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert out_path.read_text() == stdout_text


def test_usage_error_leaves_no_output_file(capsys, tmp_path):
    out_path = tmp_path / "never.json"
    code = main(["volume", "--input", str(tmp_path / "missing.json"), "--output", str(out_path)])
    capsys.readouterr()
    assert code == 2
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [["faces", "--face-dim", "16"], ["invert"]])
def test_whole_only_failure_is_one_line_usage_error(capsys, tmp_path, argv):
    # n = 18: all 18 face dimensions would take seconds and hundreds of MB
    path = tmp_path / "whole18.json"
    simplex.save_spec(whole_only_spec(18), path)
    out_path = tmp_path / "never.json"
    code, out, err = run(capsys, *argv, "--input", str(path), "--output", str(out_path))
    assert code == 2 and out == ""
    assert err == f"facevol {argv[0]}: spec is not realizable\n"
    assert not out_path.exists()


def test_negative_face_that_passes_the_gram_test_is_one_line_usage_error(capsys, tmp_path):
    # the unit square as a flat tetrahedron, its diagonal 24 stretched by 1e-10
    payload = {"n": 3, "squared_lengths": [1, 2, 1, 1, 2 + 1e-10, 1]}
    path = write_spec(tmp_path, "flat.json", payload)
    code, out, err = run(capsys, "faces", "--input", path, "--face-dim", "3")
    assert code == 2 and out == ""
    assert err.startswith("facevol faces: face (1, 2, 3, 4) has negative squared volume -")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command", [["faces", "--face-dim", "2"], ["invert", "--starts", "1"], ["jacobian"]]
)
def test_negative_face_line_is_the_same_for_every_command(capsys, tmp_path, command):
    path = write_spec(tmp_path, "flat4.json", {"n": 4, "squared_lengths": FLAT_4_SIMPLEX})
    code, out, err = run(capsys, *command, "--input", path)
    assert code == 2 and out == ""
    assert err.startswith(f"facevol {command[0]}: face (1, 2, 3) has negative squared volume -")
    assert err.count("\n") == 1


def test_face_count_limit_is_one_line_usage_error(capsys, tmp_path):
    path = write_spec(tmp_path, "reg18.json", {"n": 18, "squared_lengths": [1] * 171})
    out_path = tmp_path / "never.json"
    argv = ["faces", "--input", path, "--face-dim", "9", "--output", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        "facevol faces: the 18-simplex's 92378 faces of dimension 9 need 12009140 entries, "
        "above the limit of 4000000\n"
    )
    assert not out_path.exists()


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    out_path = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run(capsys, "spectrum", "--n", "4", "--k", "2", "--output", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("facevol spectrum: [Errno 2] No such file or directory")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_result_is_usage_error(capsys, tmp_path, monkeypatch, fmt):
    # the float Cayley-Menger determinant overflows to -inf
    path = write_spec(tmp_path, "huge.json", {"n": 2, "squared_lengths": [1, 1, 1e308]})
    code, out, err = run(capsys, "volume", "--input", path, "--format", fmt)
    assert code == 2 and out == ""
    assert err == "facevol volume: overflow encountered in det\n"
    # a non-finite float that no numpy operation flagged is caught in the report
    monkeypatch.setattr(simplex, "squared_volume", lambda spec, face: float("inf"))
    code, out, err = run(capsys, "volume", "--input", path, "--format", fmt)
    assert code == 2 and out == ""
    assert err == "facevol volume: report holds a non-finite float (NaN or infinity)\n"


def test_boolean_dimension_is_usage_error(capsys, tmp_path):
    path = write_spec(tmp_path, "bool.json", {"n": True, "squared_lengths": [1]})
    out_path = tmp_path / "never.json"
    code, out, err = run(capsys, "volume", "--input", path, "--output", str(out_path))
    assert code == 2
    assert out == "" and not out_path.exists()
    assert err.startswith("facevol volume:") and "integer" in err


def test_non_integer_dimension_is_one_line_usage_error(capsys, tmp_path):
    path = write_spec(tmp_path, "float-n.json", {"n": 3.0, "squared_lengths": [1] * 6})
    code, out, err = run(capsys, "volume", "--input", path)
    assert code == 2 and out == ""
    assert err == "facevol volume: dimension must be an integer, got 3.0\n"


def test_jacobian_dimension_limit_is_one_line_usage_error(capsys, tmp_path):
    n = jacobian.MAX_JACOBIAN_N + 1
    path = write_spec(tmp_path, "big.json", {"n": n, "squared_lengths": [1] * comb(n + 1, 2)})
    out_path = tmp_path / "never.json"
    code, out, err = run(capsys, "jacobian", "--input", path, "--output", str(out_path))
    assert code == 2 and out == ""
    assert err == f"facevol jacobian: jacobian dimension {n} is above the limit of {n - 1}\n"
    assert not out_path.exists()


def test_invert_regular_6_simplex_finds_a_preimage(capsys, tmp_path):
    # every start embeds, whatever n
    path = write_spec(tmp_path, "reg6.json", {"n": 6, "squared_lengths": [1] * 21})
    code, out, err = run(capsys, "invert", "--input", path, "--starts", "10", "--seed", "0")
    assert code == 0 and err == ""
    clusters = json.loads(out)["clusters"]
    assert clusters and all(cluster["converged"] for cluster in clusters)


def test_invert_survives_a_singular_damped_system(capsys, tmp_path):
    path = write_spec(tmp_path, "flat.json", {"n": 4, "squared_lengths": SINGULAR_STEP_TARGET})
    code, out, err = run(capsys, "invert", "--input", path, "--starts", "8", "--seed", "5")
    assert code != 2 and err == ""
    assert json.loads(out)["starts"] == 8


def test_invert_dimension_limit_is_one_line_usage_error(capsys, tmp_path, monkeypatch):
    n = jacobian.MAX_JACOBIAN_N + 1
    path = write_spec(tmp_path, "big.json", {"n": n, "squared_lengths": [1] * comb(n + 1, 2)})
    out_path = tmp_path / "never.json"
    monkeypatch.setattr(simplex, "all_face_volumes", None)  # refused before any face
    code, out, err = run(capsys, "invert", "--input", path, "--output", str(out_path))
    assert code == 2 and out == ""
    assert err == f"facevol invert: jacobian dimension {n} is above the limit of {n - 1}\n"
    assert not out_path.exists()


def test_invert_target_within_the_tolerance_is_one_line_usage_error(capsys, tmp_path):
    # the regular 15-simplex's codimension-2 volumes have norm 7.3e-11, below the default tol
    path = write_spec(tmp_path, "reg15.json", {"n": 15, "squared_lengths": [1] * 120})
    out_path = tmp_path / "never.json"
    code, out, err = run(capsys, "invert", "--input", path, "--output", str(out_path))
    assert code == 2 and out == ""
    assert err == (
        "facevol invert: target norm 7.27e-11 is at most the tolerance 1e-10: "
        "every start would converge\n"
    )
    assert not out_path.exists()


@pytest.mark.parametrize("n", [1, 2])
def test_invert_one_dimensional_spec_is_usage_error(capsys, tmp_path, n):
    # at n=2 the target is the vertex volumes, all 1: every start would be a preimage
    squared = [1] if n == 1 else [9, 16, 25]
    path = write_spec(tmp_path, "low.json", {"n": n, "squared_lengths": squared})
    out_path = tmp_path / "never.json"
    code, out, err = run(capsys, "invert", "--input", path, "--starts", "3",
                         "--output", str(out_path))
    assert code == 2
    assert out == "" and not out_path.exists()
    assert err.startswith("facevol invert:")
    assert f"dimension must be >= 3 to invert, got n={n}" in err
    assert "face_dim" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tolerance_must_be_positive_and_finite(capsys, tmp_path, tol):
    spec = write_spec(tmp_path, "reg4.json", {"n": 4, "squared_lengths": [1] * 10})
    for argv in (["jacobian", "--n", "4"], ["counterexample", "--n", "4", "--x", "0.5"],
                 ["invert", "--input", spec, "--starts", "1"], ["sweep", "--n", "4"]):
        code, out, err = run(capsys, *argv, "--tol", tol)
        assert code == 2 and out == ""
        assert f"argument --tol: must be a positive finite number, got '{tol}'" in err


@pytest.mark.parametrize("argv, tol", [
    (["jacobian", "--n", "4"], None),  # --n mode supplies 1e-9, --input takes none
    (["counterexample", "--n", "4", "--x", "0.5"], None),  # --x mode supplies 1e-10, --t takes none
    (["invert", "--input", "spec.json"], 1e-10),
    (["sweep", "--n", "4"], 1e-10),
])
def test_tolerance_defaults(argv, tol):
    assert build_parser().parse_args(argv).tol == tol


@pytest.mark.parametrize("value", ["0", "-3", "1.5"])
def test_starts_and_count_must_be_positive_integers(capsys, tmp_path, value):
    spec = write_spec(tmp_path, "reg4.json", {"n": 4, "squared_lengths": [1] * 10})
    for argv, flag in ((["invert", "--input", spec], "--starts"), (["sweep", "--n", "4"], "--count")):
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 2 and out == ""
        if value == "1.5":
            assert f"argument {flag}: invalid count value: '1.5'" in err
        else:
            assert f"argument {flag}: must be a positive integer, got '{value}'" in err


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_invert_seed_must_be_non_negative_integer(capsys, tmp_path, seed):
    spec = write_spec(tmp_path, "reg4.json", {"n": 4, "squared_lengths": [1] * 10})
    code, out, err = run(capsys, "invert", "--input", spec, "--starts", "1", "--seed", seed)
    assert code == 2 and out == ""
    if seed == "-1":
        assert "argument --seed: must be a non-negative integer, got '-1'" in err
    else:
        assert f"argument --seed: invalid seed value: '{seed}'" in err


def test_spectrum_over_order_limit_is_usage_error(capsys):
    # K(21,5) has order 20349, above the 5000-vertex limit
    code, out, err = run(capsys, "spectrum", "--n", "20", "--k", "5")
    assert code == 2 and out == ""
    assert err.startswith("facevol spectrum:") and "20349" in err and "5000" in err
    assert "max_order" not in err
    assert err.count("\n") == 1


def test_spectrum_far_over_order_limit_fails_fast(capsys):
    # C(100001,10000) has ~14,000 digits: the order check stops at C(100001,2)
    started = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--n", "100000", "--k", "10000")
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert err == (
        "facevol spectrum: K(100001,10000) has order over 5000050000, "
        "above the limit of 5000 vertices\n"
    )


def test_jacobian_order_limit_checked_before_constants(capsys, monkeypatch):
    # factorial(N-2) and a float power overflowed before the order check
    def no_constants(n):
        raise AssertionError("the constants were computed before the order check")

    monkeypatch.setattr(jacobian, "regular_point_constants", no_constants)
    code, out, err = run(capsys, "jacobian", "--n", "100000")
    assert code == 2 and out == ""
    assert err == (
        "facevol jacobian: K(100001,2) has order 5000050000, "
        "above the limit of 5000 vertices\n"
    )
    code, out, err = run(capsys, "jacobian", "--n", "2")
    assert code == 2 and err == "facevol jacobian: need n >= 3, got 2\n"


def test_jacobian_over_order_limit_builds_no_jacobian(capsys, monkeypatch):
    # K(101,2) has order 5050: the limit is checked before the face gradient is taken
    def no_gradient(*args):
        raise AssertionError("a face gradient was taken before the order check")

    monkeypatch.setattr(jacobian, "_gradients", no_gradient)
    code, out, err = run(capsys, "jacobian", "--n", "100")
    assert code == 2 and out == ""
    assert err.startswith("facevol jacobian:") and "order 5050" in err
    assert err.count("\n") == 1


def test_jacobian_refuses_a_face_volume_that_underflows(capsys):
    # the unit 91-simplex's squared volume, 2.0e-306, is a normal double; from N = 94 on it is not
    code, out, err = run(capsys, "jacobian", "--n", "93")
    assert code == 0 and err == "" and json.loads(out)["passed"] is True
    code, out, err = run(capsys, "jacobian", "--n", "94")
    assert code == 2 and out == ""
    assert err == (
        "facevol jacobian: squared volume 1.21e-310 of a unit 92-simplex "
        "underflows a normal double\n"
    )
    code, out, err = run(capsys, "jacobian", "--n", "99")
    assert code == 2 and out == ""
    assert err == (
        "facevol jacobian: squared volume 0 of a unit 97-simplex underflows a normal double\n"
    )


def test_parser_reused_after_usage_error(capsys, tri_path):
    argv = ["volume", "--input", tri_path, "--face", "1,2"]
    first = run(capsys, *argv)
    code, out, err = run(capsys, "volume", "--face")
    assert code == 2 and out == "" and "usage:" in err
    assert run(capsys, *argv) == first
    assert first[0] == 0 and json.loads(first[1])["squared_volume"] == 9


def test_malformed_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "volume", "--input", str(path))
    assert code == 2 and "volume" in err


def test_unknown_command_and_help(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["spectrum", "--help"]) == 0
    capsys.readouterr()


def test_csv_format_for_report_commands(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--k", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("schema_version,n,k,eigenvalues")
    assert len(lines) == 2
