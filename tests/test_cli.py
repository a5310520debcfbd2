"""End-to-end CLI behavior: payload shapes, exit codes, determinism."""

import hashlib
import io
import json
import subprocess
import sys
import time

import pytest

from arcflock import flocks as fl
from arcflock import mathon_arcs as ma
from arcflock import search as se
from arcflock.cli import build_parser, main
from arcflock.finite_field import gf2_add_row, make_field


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == "", err
    return code, json.loads(out)


# -- construct -----------------------------------------------------------------------


def test_construct_denniston_json(capsys):
    code, payload = run_json(
        capsys, "construct", "denniston", "--h", "3", "--alpha", "1", "--A", "1,2"
    )
    assert code == 0
    assert set(payload) == {"arc", "report"}
    assert payload["arc"]["degree"] == 4  # generators 1,2 span {0,1,2,3}
    assert payload["arc"]["conics"] == [
        {"alpha": 1, "beta": 1, "lambda": 1},
        {"alpha": 1, "beta": 1, "lambda": 2},
        {"alpha": 1, "beta": 1, "lambda": 3},
    ]
    assert payload["report"]["verdict"] is True
    assert payload["report"]["histogram"] == {"0": 10, "4": 63}


def test_construct_denniston_text(capsys):
    code, out, err = run_cli(
        capsys,
        "construct",
        "denniston",
        "--h",
        "3",
        "--alpha",
        "1",
        "--A",
        "1,2",
        "--format",
        "text",
    )
    assert code == 0
    assert "verdict=PASS" in out
    assert "conic alpha=1 beta=1 lam=3" in out


def test_construct_denniston_rejects_zero_generator(capsys):
    code, out, err = run_cli(
        capsys, "construct", "denniston", "--h", "3", "--alpha", "1", "--A", "0,1"
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("alpha", ("98", "8", "99"))
def test_construct_denniston_refuses_an_alpha_outside_the_field(capsys, alpha):
    code, out, err = run_cli(
        capsys, "construct", "denniston", "--h", "3", "--alpha", alpha, "--A", "1"
    )
    assert (code, out, err) == (2, "", f"error: alpha={alpha} is not an element of GF(8)\n")


def test_construct_denniston_rejects_bad_alpha(capsys):
    # trace(alpha) = 0 makes every conic degenerate
    code, out, err = run_cli(
        capsys, "construct", "denniston", "--h", "3", "--alpha", "2", "--A", "1"
    )
    assert code == 2
    assert "trace" in err


def test_arc_above_the_scan_ceiling_exits_2_within_seconds():
    # the arc is built, then refused before its line scan of about 2^34 steps
    argv = ["construct", "denniston", "--h", "16", "--alpha", "2048", "--A", "1,2"]
    proc = subprocess.run(
        [sys.executable, "-m", "arcflock", *argv], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: the arc line scan stops at {ma.MAX_SCAN_STEPS} steps,"
        " got |points| * (q + 1) = 196612 * 65537\n"
    )


def test_arc_scans_are_refused_before_any_point_is_listed():
    # a degree-256 arc at h = 16 has 16 711 936 points; each command builds
    # it, then exits 2 before listing them
    arc = ma.denniston_arc(make_field(16), 2048, range(1, 256))
    runs = [
        (["construct", "denniston", "--h", "16", "--alpha", "2048", "--A", "1,2,4,8,16,32,64,128"],
         None, "16711936 * 65537"),
        (["verify", "-"], ma.arc_to_json(arc), "16711936 * 65537"),
        (["convert", "--direction", "flock-to-arc", "-"], fl.flock_to_json(fl.arc_to_flock(arc)),
         "16711936 * 65537"),
        # a degree-4 arc at h = 13: 24 580 points
        (["construct", "mathon-extend", "--h", "13", "--H", "1", "--lambda-d", "2"],
         None, "24580 * 8193"),
    ]
    for argv, obj, steps in runs:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "arcflock", *argv],
            input=None if obj is None else json.dumps(obj),
            capture_output=True, text=True, timeout=30,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: the arc line scan stops at {ma.MAX_SCAN_STEPS} steps,"
            f" got |points| * (q + 1) = {steps}\n"
        )
        assert elapsed < 2, argv


def test_high_degree_arc_above_the_step_ceiling_exits_2_within_seconds():
    # a degree-32 arc at h = 11 has 63 520 points: 63 520 * 2049 steps > MAX_SCAN_STEPS
    argv = ["construct", "denniston", "--h", "11", "--alpha", "1", "--A", "1,2,4,8,16"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "arcflock", *argv], capture_output=True, text=True, timeout=30
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: the arc line scan stops at {ma.MAX_SCAN_STEPS} steps")
    assert "63520 * 2049" in proc.stderr
    assert elapsed < 2


def test_flock_above_the_step_ceiling_exits_2_within_seconds():
    # a degree-256 arc at h = 16 is built and converted, then its flock's
    # 256 * 65 537 section points are refused before any is listed
    arc = ma.denniston_arc(make_field(16), 2048, range(1, 256))
    inputs = {
        ("convert", "--direction", "arc-to-flock", "-"): ma.arc_to_json(arc),
        ("verify", "-"): fl.flock_to_json(fl.arc_to_flock(arc)),
    }
    for argv, obj in inputs.items():
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "arcflock", *argv],
            input=json.dumps(obj), capture_output=True, text=True, timeout=30,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: the flock section oracle stops at {ma.MAX_SCAN_STEPS} steps,"
            " got (q + 1) * d * (d + 1) / 2 = 65537 * 256 * 257 / 2\n"
        )
        assert elapsed < 2


def test_construct_mathon_extend_frozen_q32(capsys):
    code, payload = run_json(
        capsys,
        "construct",
        "mathon-extend",
        "--h",
        "5",
        "--H",
        "1,2",
        "--lambda-d",
        "4",
    )
    assert code == 0
    assert set(payload) == {"arc", "report", "rho", "search"}
    assert payload["rho"] == 16
    assert payload["search"]["rank"] == 3
    assert payload["search"]["num_rho_valid"] == 1
    assert payload["search"]["example_arc"] is None  # stripped from the record
    assert payload["arc"]["degree"] == 8
    assert payload["report"]["verdict"] is True
    assert [tuple(c.values()) for c in payload["arc"]["conics"]] == [
        (1, 1, 1),
        (1, 1, 4),
        (1, 1, 5),
        (1, 5, 16),
        (1, 10, 17),
        (1, 19, 20),
        (1, 30, 21),
    ]


def test_construct_mathon_extend_default_rho(capsys):
    # H = {0,1}, lambda_d = 2 in GF(32) has valid rho {4,...,30}
    base = ("construct", "mathon-extend", "--h", "5", "--H", "1", "--lambda-d", "2")
    code_a, least = run_json(capsys, *base)
    code_b, largest = run_json(capsys, *base, "--rho", "30")
    assert code_a == code_b == 0
    assert least["rho"] == 4 and largest["rho"] == 30
    assert least["report"]["verdict"] and largest["report"]["verdict"]


def test_construct_mathon_extend_explicit_and_invalid_rho(capsys):
    base = ("construct", "mathon-extend", "--h", "5", "--H", "1,2", "--lambda-d", "4")
    code, payload = run_json(capsys, *base, "--rho", "16")
    assert code == 0 and payload["rho"] == 16
    code, out, err = run_cli(capsys, *base, "--rho", "17")
    assert code == 2
    assert "not a valid solution" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--H", "1,2", "--lambda-d", "4", "--rho", "3"], "rho 3 is not a valid solution"),
        (["--H", "1,2,4", "--lambda-d", "8"], "no valid rho exists for this (H, lambda_d) pair"),
    ],
    ids=["invalid-rho", "no-valid-rho"],
)
def test_construct_mathon_extend_refusals(capsys, argv, message):
    code, out, err = run_cli(capsys, "construct", "mathon-extend", "--h", "5", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_construct_mathon_extend_solves_its_system_once(capsys, monkeypatch):
    # the doubling costs exactly the row reductions of one search_group call
    calls = []

    def counted(reduced, row, b):
        calls.append(row)
        return gf2_add_row(reduced, row, b)

    monkeypatch.setattr(se, "gf2_add_row", counted)
    se.search_group(se.GroupSpec(make_field(5), (0, 1, 2, 3), 4))
    one_search = len(calls)
    assert one_search == 4  # the four rows of its coset
    calls.clear()
    code, payload = run_json(
        capsys, "construct", "mathon-extend", "--h", "5", "--H", "1,2", "--lambda-d", "4"
    )
    assert code == 0 and payload["rho"] == 16
    assert len(calls) == one_search


def test_construct_mathon_extend_refuses_even_h(capsys):
    # the trace system of GF(16) has valid rho, but the alpha = 1 base arc is degenerate
    code, out, err = run_cli(
        capsys, "construct", "mathon-extend", "--h", "4", "--H", "1,2", "--lambda-d", "6"
    )
    assert code == 2 and out == ""
    assert err == "error: h = 4 is even: the alpha = 1 base arc needs trace(1) = 1\n"


# -- verify --------------------------------------------------------------------------


def test_verify_arc_file_and_wrapped_payload(capsys, tmp_path):
    out_file = tmp_path / "arc.json"
    code, out, err = run_cli(
        capsys,
        "construct",
        "denniston",
        "--h",
        "3",
        "--alpha",
        "1",
        "--A",
        "1,2",
        "--out",
        str(out_file),
    )
    assert code == 0
    assert out == ""  # --out suppresses stdout
    # the construct payload wraps the arc under "arc"; verify unwraps it
    code, payload = run_json(capsys, "verify", str(out_file))
    assert code == 0
    assert payload["kind"] == "arc"
    assert payload["report"]["verdict"] is True


def test_verify_flock_pass_and_fail(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {
                "field": {"h": 3, "modulus": 11},
                "planes": [[1, 0, 0, 0], [1, 1, 1, 1], [1, 2, 2, 2], [1, 3, 3, 3]],
            }
        )
    )
    code, payload = run_json(capsys, "verify", str(good))
    assert code == 0
    assert payload["kind"] == "flock"
    assert payload["report"]["verdict"] is True
    assert payload["classification"] == {"additive": True, "linear": True}

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "field": {"h": 3, "modulus": 11},
                "planes": [[1, 0, 0, 0], [1, 1, 0, 1]],  # equal X2: sections meet
            }
        )
    )
    code, payload = run_json(capsys, "verify", str(bad))
    assert code == 1  # verification ran and failed
    assert payload["report"]["verdict"] is False


def test_verify_stdin(capsys, monkeypatch):
    arc = {
        "field": {"h": 3, "modulus": 11},
        "conics": [
            {"alpha": 1, "beta": 1, "lambda": 1},
            {"alpha": 1, "beta": 1, "lambda": 2},
            {"alpha": 1, "beta": 1, "lambda": 3},
        ],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(arc)))
    code, payload = run_json(capsys, "verify", "-")
    assert code == 0 and payload["kind"] == "arc"


def test_verify_error_exit_codes(capsys, tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    code, out, err = run_cli(capsys, "verify", str(malformed))
    assert code == 2 and "error:" in err

    neither = tmp_path / "neither.json"
    neither.write_text(json.dumps({"something": 1}))
    code, out, err = run_cli(capsys, "verify", str(neither))
    assert code == 2 and "neither" in err

    code, out, err = run_cli(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2


def test_repeated_conic_exits_2_naming_it(capsys, monkeypatch):
    F = {"alpha": 1, "beta": 1, "lambda": 1}
    arc = {"field": {"h": 3, "modulus": 11}, "conics": [F, F]}
    for argv in (["verify", "-"], ["convert", "--direction", "arc-to-flock", "-"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(arc)))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: conic alpha=1 beta=1 lambda=1 is listed twice\n"


def test_repeated_plane_exits_2_naming_it(capsys, monkeypatch):
    # [2, 2, 2, 2] is [1, 1, 1, 1] in another scaling
    flock = {"field": {"h": 3, "modulus": 11},
             "planes": [[1, 0, 0, 0], [1, 1, 1, 1], [2, 2, 2, 2]]}
    for argv in (["verify", "-"], ["convert", "--direction", "flock-to-arc", "-"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(flock)))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: plane [1, 1, 1, 1] is listed twice\n")


def test_unparsable_inputs_exit_2_with_their_message(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "construct", "denniston", "--h", "3", "--alpha", "1",
                             "--A", "1,,2")
    assert (code, out) == (2, "")
    assert err == ("error: cannot parse element list '1,,2':"
                   " invalid literal for int() with base 0: ''\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
    code, out, err = run_cli(capsys, "verify", "-")
    assert (code, out, err) == (2, "", "error: input JSON is nested too deeply\n")


# -- convert / project ---------------------------------------------------------------


@pytest.fixture()
def arc_file(tmp_path):
    path = tmp_path / "d4.json"
    path.write_text(
        json.dumps(
            {
                "field": {"h": 3, "modulus": 11},
                "conics": [
                    {"alpha": 1, "beta": 1, "lambda": 1},
                    {"alpha": 1, "beta": 1, "lambda": 2},
                    {"alpha": 1, "beta": 1, "lambda": 3},
                ],
            }
        )
    )
    return str(path)


def test_convert_arc_to_flock(capsys, arc_file):
    code, payload = run_json(capsys, "convert", "--direction", "arc-to-flock", arc_file)
    assert code == 0
    assert payload["flock"]["planes"] == [
        [1, 0, 0, 0],
        [1, 1, 1, 1],
        [1, 2, 2, 2],
        [1, 3, 3, 3],
    ]
    assert payload["classification"] == {"additive": True, "linear": True}
    assert payload["report"]["verdict"] is True


def test_convert_flock_to_arc_round_trip(capsys, arc_file, tmp_path):
    flock_file = tmp_path / "flock.json"
    code, out, err = run_cli(
        capsys,
        "convert",
        "--direction",
        "arc-to-flock",
        arc_file,
        "--out",
        str(flock_file),
    )
    assert code == 0
    code, payload = run_json(
        capsys, "convert", "--direction", "flock-to-arc", str(flock_file)
    )
    assert code == 0
    assert payload["arc"] == json.loads(open(arc_file).read()) | {
        "degree": 4,
        "field": {"h": 3, "modulus": 11},
    }
    assert payload["report"]["verdict"] is True


def test_project_default_and_custom_point(capsys, arc_file):
    code, payload = run_json(capsys, "project", arc_file)
    assert code == 0
    assert payload["projection_point"] == [1, 0, 1, 0]
    assert payload["flock"]["planes"] == [
        [1, 0, 1, 0],
        [1, 1, 0, 1],
        [1, 3, 2, 3],
        [1, 4, 5, 4],
    ]
    assert payload["report"]["verdict"] is True
    assert payload["classification"]["additive"] is False

    code, payload = run_json(capsys, "project", arc_file, "--p", "1,0,3,0")
    assert code == 0
    assert payload["projection_point"] == [1, 0, 3, 0]
    assert payload["report"]["verdict"] is True


_Q8 = {"h": 3, "modulus": 11}


@pytest.mark.parametrize(
    "flock, message",
    [
        (fl.flock_to_json(fl.project_arc(ma.denniston_arc(make_field(3), 1, (1, 2, 3)))),
         "only an additive partial flock corresponds to an arc"),
        ({"field": _Q8, "planes": [[1, 0, 0, 0], [1, 2, 1, 2]]},
         "the closure's member on lam=1 is not a conic:"
         " degenerate conic: trace(alpha*beta) = 0 for alpha=2, beta=2"),
        ({"field": _Q8, "planes": [[1, 0, 0, 0]]}, "an arc needs at least one conic"),
    ],
    ids=["projected", "section-meets-x0", "lone-x0"],
)
def test_convert_flock_to_arc_refusals_are_frozen(capsys, tmp_path, flock, message):
    path = tmp_path / "flock.json"
    path.write_text(json.dumps(flock))
    code, out, err = run_cli(capsys, "convert", "--direction", "flock-to-arc", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_convert_chain(capsys, arc_file):
    code, payload = run_json(capsys, "convert", "--direction", "chain", arc_file)
    assert code == 0
    assert payload["chain_equals_algebraic"] is True
    assert payload["additive"]["planes"] == payload["algebraic"]["planes"]
    assert payload["raw"]["planes"] != payload["additive"]["planes"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_each_flock_is_classified_once_per_command(capsys, monkeypatch, arc_file, tmp_path, fmt):
    flock_file, raw_file = tmp_path / "flock.json", tmp_path / "raw.json"
    assert main(["convert", "--direction", "arc-to-flock", arc_file, "--out", str(flock_file)]) == 0
    assert main(["project", arc_file, "--out", str(raw_file)]) == 0
    bare_file = tmp_path / "bare.json"  # planes only: no declared field to check
    bare_file.write_text(json.dumps({k: json.loads(flock_file.read_text())["flock"][k]
                                     for k in ("field", "planes")}))
    calls = []
    classify = fl.classify_flock

    def counted(F):
        calls.append(F)
        return classify(F)

    monkeypatch.setattr(fl, "classify_flock", counted)
    for argv, flocks, code in (
        # verify classifies its one flock twice: in flock_from_json, then for the report
        (["verify", str(flock_file)], 2, 0),
        (["verify", str(bare_file)], 2, 0),
        (["convert", "--direction", "arc-to-flock", arc_file], 1, 0),
        (["convert", "--direction", "flock-to-arc", str(flock_file)], 1, 0),
        (["convert", "--direction", "flock-to-arc", str(raw_file)], 1, 2),  # not additive
        (["project", arc_file], 1, 0),
        (["convert", "--direction", "chain", arc_file], 2, 0),  # raw, and additive = algebraic
    ):
        calls.clear()
        assert run_cli(capsys, *argv, "--format", fmt)[0] == code, argv
        assert len(calls) == flocks, argv
        assert len(set(calls)) == (1 if argv[0] == "verify" else flocks), argv


def test_project_rejects_bad_projection_point(capsys, arc_file):
    code, out, err = run_cli(capsys, "project", arc_file, "--p", "1,0")
    assert code == 2 and "coordinates" in err
    code, out, err = run_cli(capsys, "project", arc_file, "--p", "1,0,0,0")
    assert code == 2  # the vertex is not a projection point


@pytest.mark.parametrize(
    "argv, message",
    [
        (["project", "--p", ""], "cannot parse element list ''"),
        # projection has one spelling, project: convert takes no --p and no project direction
        (["convert", "--direction", "arc-to-flock", "--p", "1,0,1,0"], "unrecognized arguments"),
        (["convert", "--direction", "flock-to-arc", "--p", "1,0,1,0"], "unrecognized arguments"),
        (["convert", "--direction", "chain", "--p", "1,0,1,0"], "unrecognized arguments"),
        (["convert", "--direction", "project"], "invalid choice: 'project'"),
    ],
    ids=["project-empty-p", "arc-to-flock-with-p", "flock-to-arc-with-p", "chain-with-p",
         "convert-project"],
)
def test_projection_point_is_honoured_or_refused(arc_file, argv, message):
    proc = subprocess.run(
        [sys.executable, "-m", "arcflock", argv[0], arc_file, *argv[1:]],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert message in proc.stderr



_FLOCK_FIELD = {"h": 3, "modulus": 11}


@pytest.mark.parametrize(
    "payload, argv",
    [
        ({"field": _FLOCK_FIELD, "planes": [[1, 999, 0, 0]]}, ["verify"]),
        ({"field": _FLOCK_FIELD, "planes": [[1, "a", 0, 0]]}, ["verify"]),
        ({"field": _FLOCK_FIELD, "planes": 5}, ["verify"]),
        ({"field": {"h": True, "modulus": 3}, "planes": [[1, 0, 0, 0]]}, ["verify"]),
        ({"field": {"h": 3, "modulus": -11}, "planes": [[1, 0, 0, 0]]}, ["verify"]),
        (None, ["project", "--p", "1,0,9,0"]),
        ("[" * 100_000, ["verify"]),  # json.loads raises RecursionError
    ],
    ids=["plane-out-of-range", "plane-string", "planes-not-a-list", "bool-h",
         "negative-modulus", "projection-point-out-of-range", "deeply-nested-json"],
)
def test_malformed_coordinates_exit_2_without_traceback(
    tmp_path, arc_file, payload, argv
):
    path = arc_file
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "arcflock", argv[0], str(path), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")

# -- search / rank -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("search --h 7 --d 4",
         "e6733effaa07b4a1d671ab40d99e91b4bb0e2a3278c6dc4c432256f5e0db775f"),
        ("search --h 8 --d 4",  # even h: epsilon = 1
         "9ef3f1848106956043cedfde46737c695d9a98ce52c21176afd132501b5e9856"),
        ("rank --h 6 --d 8",
         "175a36c17cb35530a79c814927c4540dfd208847e8c0e5ed75db5f689e5aa0fc"),
        ("rank --h 7 --d 4 --format text",
         "ccc8f11e176a443250b2a1cc550a361dbe965f964fb5835931fd26693f4bd979"),
        ("construct mathon-extend --h 9 --H 1,2,4 --lambda-d 8",
         "0fa8d7dbc175e873f99ff09659a9dd23fe255edcce1d044c8403ed1fff3f9e44"),
        ("search --h 6 --d 8",  # even h at |H| = 8: counts vary inside a coset
         "39e2c82462754f6a9591ec7057430bdc89d8d302fa8955abc8a12e8fd7ae46c6"),
    ],
)
def test_survey_and_doubling_output_is_frozen(capsys, argv, digest):
    # [FROZEN: sha256 of the whole stdout; any change to the solver must keep these bytes]
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_q16_frozen_summary(capsys):
    code, payload = run_json(capsys, "search", "--h", "4", "--d", "4")
    assert code == 0
    assert payload["q"] == 16 and payload["d"] == 4
    assert len(payload["records"]) == 84
    assert payload["example_report"] is None  # even degree: no examples
    assert payload["summary"] == {
        "pairs": 84,
        "with_valid_rho": 66,
        "rank_histogram": {"3": 84},
        "guaranteed_degree": 8,
    }


def test_search_q8_has_a_verified_example(capsys):
    code, payload = run_json(capsys, "search", "--h", "3", "--d", "2")
    assert code == 0
    assert payload["example_report"] is not None
    assert payload["example_report"]["verdict"] is True
    examples = [r for r in payload["records"] if r["example_arc"] is not None]
    assert len(examples) == 1
    assert examples[0]["example_arc"]["degree"] == 4


def test_search_above_the_scan_ceiling_reports_the_survey(capsys):
    # a degree-4 arc at h = 13 is over the scan budget: the survey is complete,
    # but no example arc is built
    code, payload = run_json(capsys, "search", "--h", "13", "--d", "2")
    assert code == 0
    assert len(payload["records"]) == 8190
    assert payload["example_report"] is None
    assert all(r["example_arc"] is None for r in payload["records"])


def test_search_example_failing_the_line_scan_exits_1(capsys, monkeypatch):
    # two conics of a degree-4 arc are no maximal arc: degree 3 does not divide 8
    def two_conics(spec, rho):
        gf = spec.gf
        return ma.MathonArc(gf, (ma.Conic(gf, 1, 1, 1), ma.Conic(gf, 1, 1, 2)))

    monkeypatch.setattr("arcflock.search.construct_extension_arc", two_conics)
    code, out, err = run_cli(capsys, "search", "--h", "3", "--d", "2", "--format", "text")
    assert code == 1 and err == ""
    assert out.splitlines()[-1] == "example arc verdict: FAIL"


def test_search_deterministic_output(capsys):
    args = ("search", "--h", "4", "--d", "2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_rank_q8(capsys):
    code, payload = run_json(capsys, "rank", "--h", "3", "--d", "2")
    assert code == 0
    assert payload["q"] == 8 and payload["d"] == 2
    assert len(payload["records"]) == 6  # one subgroup {0,1}, six lambda_d choices
    assert payload["guaranteed_degree"] == 4
    for r in payload["records"]:
        assert r["H"] == [0, 1]
        assert r["solution_count"] in (0, 1 << (3 - r["rank"]))
    assert sum(payload["rank_histogram"].values()) == 6


def test_oversized_rank_survey_exits_2(capsys):
    # about 2.1e9 (H, lambda_d) pairs, and 2.1e6: refused before any subgroup is enumerated
    for h, pairs, elements in ((16, 2147287044, 10736435220), (11, 2091012, 10455060)):
        code, out, err = run_cli(capsys, "rank", "--h", str(h), "--d", "4")
        assert code == 2 and out == ""
        assert err == (
            f"error: a survey of |H| = 4 at h = {h} has {pairs} (H, lambda_d) pairs"
            f" listing {elements} field elements; surveys stop at 8388608\n"
        )


def test_rank_survey_of_too_many_trace_conditions_exits_2(capsys):
    # 1 047 552 pairs are few, but each lists a 1024-element H
    code, out, err = run_cli(capsys, "rank", "--h", "11", "--d", "1024")
    assert code == 2 and out == ""
    assert err == (
        "error: a survey of |H| = 1024 at h = 11 has 1047552 (H, lambda_d) pairs"
        " listing 1073740800 field elements; surveys stop at 8388608\n"
    )


def test_survey_of_the_whole_field_reports_no_pairs_within_seconds():
    # H = GF(2^16) leaves no lambda_d; enumerating it takes one subgroup
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "arcflock", "search", "--h", "16", "--d", "65536"],
        capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["records"] == [] and payload["summary"]["pairs"] == 0


def test_rank_text_format(capsys):
    code, out, err = run_cli(
        capsys, "rank", "--h", "3", "--d", "2", "--format", "text"
    )
    assert code == 0
    assert "rank analysis q=8" in out
    assert "rank_histogram=" in out


# -- module execution ----------------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "arcflock", "rank", "--h", "3", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["q"] == 8


# -- one writer ----------------------------------------------------------------------

_FIELD = {"h": 3, "modulus": 11}
BATTERY_INPUTS = {
    # the degree-4 Denniston arc F_{1,1,lam}, lam in {1, 2, 3}, and its additive flock
    "arc": {"field": _FIELD,
            "conics": [{"alpha": 1, "beta": 1, "lambda": lam} for lam in (1, 2, 3)]},
    "flock": {"field": _FIELD, "planes": [[1, 0, 0, 0], [1, 1, 1, 1], [1, 2, 2, 2], [1, 3, 3, 3]]},
    # two planes whose sections share a point: the verdict fails
    "bad_flock": {"field": _FIELD, "planes": [[1, 0, 1, 0], [1, 1, 1, 1]]},
    "repeated_conic": {"field": _FIELD,
                       "conics": [{"alpha": 1, "beta": 1, "lambda": 1}] * 2},
}
_EACH_FORMAT = [
    "construct denniston --h 3 --alpha 1 --A 1,2",
    "construct mathon-extend --h 5 --H 1 --lambda-d 2",
    "verify {arc}",
    "verify {flock}",
    "verify {bad_flock}",
    "convert --direction arc-to-flock {arc}",
    "convert --direction flock-to-arc {flock}",
    "convert --direction chain {arc}",
    "project {arc}",
    "project {arc} --p 1,0,2,0",
    "search --h 5 --d 2",
    "rank --h 5 --d 2",
]
# (argv, the input on stdin), each run once
BATTERY = [(f"{argv} --format {fmt}", None) for argv in _EACH_FORMAT for fmt in ("json", "text")]
BATTERY += [
    ("verify -", "arc"),
    ("project - --p 1,0,2,0 --format text", "arc"),
    ("construct denniston --h 3 --alpha 1 --A 1,2 --out {out}", None),
    ("convert --direction chain {arc} --format text --out {out}", None),
    ("construct mathon-extend --h 5 --H 1,2 --lambda-d 4 --rho 3", None),
    ("verify -", "repeated_conic"),
    ("construct mathon-extend --h 4 --H 1 --lambda-d 2", None),
]


def battery_paths(tmp_path):
    """The file path of each battery input, written there, and of --out."""
    paths = {"out": str(tmp_path / "out.txt")}
    for name, obj in BATTERY_INPUTS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
    return paths


def run_battery(capsys, monkeypatch, tmp_path, argv, stdin):
    """main's exit status, the text it wrote (to stdout or to --out) and its stderr."""
    paths = battery_paths(tmp_path)
    if stdin is not None:
        # the wrapper form that construct prints
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"arc": BATTERY_INPUTS[stdin]})))
    code, out, err = run_cli(capsys, *argv.format(**paths).split())
    if "--out" in argv:
        assert out == ""
        with open(paths["out"], encoding="utf-8") as fh:
            out = fh.read()
    return code, out, err


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


EMPTY = _sha("")
FROZEN_OUTPUT = {
    ("construct denniston --h 3 --alpha 1 --A 1,2 --format json", None):
        (0, "65c6417e156586961db99f39231bcb87d04bc2e2d121616b531e4245694e7729", EMPTY),
    ("construct denniston --h 3 --alpha 1 --A 1,2 --format text", None):
        (0, "092573c34be548afa77b4b0f4ec822b27d87c28de7ee44079acac1d6483a082b", EMPTY),
    ("construct mathon-extend --h 5 --H 1 --lambda-d 2 --format json", None):
        (0, "bd93e2aa926efcde3bc24faf5760c65646c38c3b7e47c82926b31d9a78628637", EMPTY),
    ("construct mathon-extend --h 5 --H 1 --lambda-d 2 --format text", None):
        (0, "48e5eea8340f99f7724419dd9d7e73d4421c415cd582aa5e6dbf8ff954d2176c", EMPTY),
    ("verify {arc} --format json", None):
        (0, "c08693ab5117d1802229ed47b480e18b0fa038c189fd89e4f50c9e276377a340", EMPTY),
    ("verify {arc} --format text", None):
        (0, "3702ec66561e5910aae7cece9877fe61844e42bb0666765b2eacc4450b354a91", EMPTY),
    ("verify {flock} --format json", None):
        (0, "1e3e5027a374c37041eaee1e4a6142976d8f5e5f2deef47a985ea2539c5b5f3e", EMPTY),
    ("verify {flock} --format text", None):
        (0, "28f1f6ab68f11807d477c5ff959b2721209eb6a58df8afd68649184f7f638f91", EMPTY),
    ("verify {bad_flock} --format json", None):
        (1, "97257d3e3cc33332f45b1c4c25ade1c771962c7cfde7e0d559d0e1350159ad74", EMPTY),
    ("verify {bad_flock} --format text", None):
        (1, "976a31ae938a3dfcbe9d5fd802bba544473cfde9803a29cc16ab43c321e698f4", EMPTY),
    ("convert --direction arc-to-flock {arc} --format json", None):
        (0, "d1c9c97b9570cc1231cc312c856fb1c68003067627e01f452d0f49731b932a35", EMPTY),
    ("convert --direction arc-to-flock {arc} --format text", None):
        (0, "91084114790d09a26adcc2974cb38313b28275faffc4ad06028ce555d0715043", EMPTY),
    ("convert --direction flock-to-arc {flock} --format json", None):
        (0, "65c6417e156586961db99f39231bcb87d04bc2e2d121616b531e4245694e7729", EMPTY),
    ("convert --direction flock-to-arc {flock} --format text", None):
        (0, "092573c34be548afa77b4b0f4ec822b27d87c28de7ee44079acac1d6483a082b", EMPTY),
    ("convert --direction chain {arc} --format json", None):
        (0, "7c6c83c5a1dac1b18979107a06f5fa3c3b411ff340413a4c3e74910573ffa265", EMPTY),
    ("convert --direction chain {arc} --format text", None):
        (0, "d7161c7f249b31cb2572c04042c231e984869b7a223458f65fa279db83cd99f4", EMPTY),
    ("project {arc} --format json", None):
        (0, "693fadfa7f155c8e78aa67fe3ca4baa90c2ef6e759560b9f9f830e15c627c0be", EMPTY),
    ("project {arc} --format text", None):
        (0, "0d1733c350a162ffd8c1a4aa70854a81d2353996ebca9d52edbc2299eadb595b", EMPTY),
    ("project {arc} --p 1,0,2,0 --format json", None):
        (0, "ac68ba994cf33ab0907b46f6d1e0dd40eb30aa0fea8874b8b2fdc9b4d99aaf65", EMPTY),
    ("project {arc} --p 1,0,2,0 --format text", None):
        (0, "7a80dc175d143ac694902314ae419d8a79c02c6461fc8f3aa63e59c8742ab8c9", EMPTY),
    ("search --h 5 --d 2 --format json", None):
        (0, "ee07a1e7af792f6aff0c383dd71b28de818df2abc3666663c7528910e258e9f8", EMPTY),
    ("search --h 5 --d 2 --format text", None):
        (0, "67bdb931d2b392b0804e7ea1f5e209cea36b9621a99c71d50e687ef1f9fff1e9", EMPTY),
    ("rank --h 5 --d 2 --format json", None):
        (0, "55e351661168f0f68adff0fc3e0ac7501366b02bb4a78a0c568d5266fdda717c", EMPTY),
    ("rank --h 5 --d 2 --format text", None):
        (0, "263a774f8d1389d745640dc2cb895b17ea287bde23d728ce5b05f2238b60ced7", EMPTY),
    ("verify -", "arc"):
        (0, "c08693ab5117d1802229ed47b480e18b0fa038c189fd89e4f50c9e276377a340", EMPTY),
    ("project - --p 1,0,2,0 --format text", "arc"):
        (0, "7a80dc175d143ac694902314ae419d8a79c02c6461fc8f3aa63e59c8742ab8c9", EMPTY),
    ("construct denniston --h 3 --alpha 1 --A 1,2 --out {out}", None):
        (0, "65c6417e156586961db99f39231bcb87d04bc2e2d121616b531e4245694e7729", EMPTY),
    ("convert --direction chain {arc} --format text --out {out}", None):
        (0, "d7161c7f249b31cb2572c04042c231e984869b7a223458f65fa279db83cd99f4", EMPTY),
    ("construct mathon-extend --h 5 --H 1,2 --lambda-d 4 --rho 3", None):
        (2, EMPTY, "f3ab627f5a62313fd3a0d1598814ddab2319714279628f2672e627f781c0278e"),
    ("verify -", "repeated_conic"):
        (2, EMPTY, "479c853aa21ae27247d051c5929322ee55f0009d3f1eb68783703725111e212e"),
    ("construct mathon-extend --h 4 --H 1 --lambda-d 2", None):
        (2, EMPTY, "4f95705111d63f5831d2562722d5bfc3207f5bd0631b448e3df7e4a002dbf2ea"),

}


@pytest.mark.parametrize("argv, stdin", BATTERY, ids=[f"{a}<{s}" if s else a for a, s in BATTERY])
def test_cli_output_is_frozen(capsys, monkeypatch, tmp_path, argv, stdin):
    # [FROZEN: the exit status and the sha256 of the output and of stderr, for every
    # subcommand in both formats, stdin, --out, exit 1 and exit 2]
    code, out, err = run_battery(capsys, monkeypatch, tmp_path, argv, stdin)
    assert (code, _sha(out), _sha(err)) == FROZEN_OUTPUT[argv, stdin]


# one command line per handler and per branch inside it
HANDLER_ARGV = [
    "construct denniston --h 3 --alpha 1 --A 1,2",
    "construct mathon-extend --h 5 --H 1 --lambda-d 2",
    "verify {arc}",
    "verify {bad_flock}",
    "convert --direction arc-to-flock {arc}",
    "convert --direction flock-to-arc {flock}",
    "convert --direction chain {arc}",
    "project {arc} --p 1,0,2,0",
    "search --h 5 --d 2",
    "rank --h 5 --d 2",
]


@pytest.mark.parametrize("argv", HANDLER_ARGV)
def test_handlers_return_their_output_and_write_nothing(capsys, tmp_path, argv):
    # only main writes: a handler returns (payload, lines, ok) for _emit
    args = build_parser().parse_args(argv.format(**battery_paths(tmp_path)).split())
    result = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert isinstance(result, tuple) and len(result) == 3
    payload, lines, ok = result
    assert isinstance(payload, dict) and isinstance(lines, list) and isinstance(ok, bool)
    assert all(isinstance(line, str) for line in lines)
