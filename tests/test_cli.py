"""Command line interface: reports, determinism, config handling, exit codes."""

import argparse
import csv
import io
import json

import pytest

from spherecomb.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_report_free2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--preset", "free2_sanov")
    assert code == 0
    doc = json.loads(out)
    res = doc["results"]
    assert abs(res["lam"] - 3.0) <= 1e-10
    assert res["class"] == "semisimple"
    assert res["p_star"] == 1
    assert doc["config"]["preset"] == "free2_sanov"


def test_equidist_trivial_character_column_of_ones(capsys):
    code, out, err = run_cli(
        capsys, "equidist", "--preset", "free2_sanov", "--n-max", "6", "--k", "0,0"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    for row in rows:
        assert row["spherical_re"] == "1.0"
        assert row["spherical_im"] == "0.0"
        assert row["cesaro_re"] == "1.0"
        assert row["mode"] == "exact"
        assert row["stderr"] == ""


def test_equidist_csv_columns(capsys):
    code, out, err = run_cli(
        capsys, "equidist", "--preset", "free2_sanov", "--n-max", "3"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "n,path_count,spherical_re,spherical_im,cesaro_re,cesaro_im,mode,stderr"


def test_tv_zero_column(capsys):
    code, out, err = run_cli(capsys, "tv", "--preset", "free2_sanov", "--n-max", "10")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["tv"] for r in rows] == ["0.0"] * 10


def test_byte_identical_reruns(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            "equidist", "--preset", "free2_sanov", "--n-max", "8",
            "--k", "1,0", "--output", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_byte_identical_mc_reruns(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "equidist", "--preset", "free2_sanov", "--n-max", "4",
            "--mode", "mc", "--samples", "50", "--seed", "9",
            "--output", str(out),
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "free2_sanov", "n_max": 4, "k": "0,0"}))
    code, out, _ = run_cli(capsys, "equidist", "--config", str(cfg))
    assert code == 0
    assert len(out.splitlines()) == 5  # header + 4 rows

    # flag wins over config entry
    code, out, _ = run_cli(capsys, "equidist", "--config", str(cfg), "--n-max", "2")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
    assert code == 2
    assert "nonsense" in err


def test_resolved_config_embedded(capsys):
    code, out, _ = run_cli(
        capsys, "kappa", "--preset", "free2_sanov", "--n-max", "5", "--k", "0,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["command"] == "kappa"
    assert doc["config"]["n_max"] == 5
    assert doc["config"]["function"] == [[[0, 0], [1.0, 0.0]]]
    assert abs(doc["results"]["value"][0] - 1.0) <= 1e-12


def test_basepoint_fraction_parsing(capsys):
    # x = (1/4, 0) puts chi_(1,0) at exactly i
    code, out, _ = run_cli(
        capsys,
        "equidist", "--preset", "z_parabolic", "--basepoint", "1/4,0",
        "--n-max", "1", "--k", "1,0", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    re, im = doc["results"]["spherical"][0]
    # orbit of (1/4, 0) under the shear is fixed, so the average is chi(x) = i
    assert abs(re) <= 1e-12 and abs(im - 1.0) <= 1e-12


def test_bad_basepoint_dimension(capsys):
    code, _, err = run_cli(
        capsys, "equidist", "--preset", "free2_sanov", "--basepoint", "1/4",
        "--n-max", "2",
    )
    assert code == 2
    assert "coordinates" in err


def test_function_terms_json(capsys):
    terms = json.dumps([[[0, 0], [2.0, 0.0]], [[1, 0], [1.0, 0.0]]])
    code, out, _ = run_cli(
        capsys,
        "equidist", "--preset", "free2_sanov", "--function", terms,
        "--n-max", "4", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    # spherical value = 2 + (decaying character term)
    re, im = doc["results"]["spherical"][3]
    assert abs(complex(re, im) - 2.0) <= 0.2


def test_mode_mc_has_stderr(capsys):
    code, out, _ = run_cli(
        capsys,
        "equidist", "--preset", "free2_sanov", "--n-max", "3", "--mode", "mc",
        "--samples", "30", "--seed", "4",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["mode"] == "mc" for r in rows)
    assert all(r["stderr"] != "" for r in rows)


def test_auto_mode_switches_to_mc_on_small_budget(capsys):
    code, out, _ = run_cli(
        capsys,
        "equidist", "--preset", "free2_sanov", "--n-max", "6", "--mode", "auto",
        "--budget", "100", "--samples", "20", "--seed", "1",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["mode"] == "mc" for r in rows)


def test_spheres_cross_check(capsys):
    code, out, _ = run_cli(
        capsys, "spheres", "--preset", "free2_sanov", "--n-max", "5", "--cross-check"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["match"] == "true" for r in rows)
    assert [int(r["path_count"]) for r in rows] == [1, 4, 12, 36, 108, 324]


def test_spheres_n_max_zero_keeps_the_identity_row(capsys):
    code, out, _ = run_cli(capsys, "spheres", "--n-max", "0", "--cross-check")
    assert code == 0
    assert out == "n,path_count,cayley_count,match\n0,1,1,true\n"


def test_markov_cesaro_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "markov-cesaro", "--preset", "free2_sanov", "--n-max", "6",
        "--start", "1", "--end", "2", "--k", "0,0",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["predicted_limit"][0] - 1.0 / 16.0) <= 1e-9


def test_sample_geodesic_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys,
            "sample-geodesic", "--preset", "free2_sanov",
            "--length", "500", "--seed", "8",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert len(doc["results"]["word_prefix"]) == 40


def test_build_combing_and_user_preset(tmp_path, capsys):
    auto = tmp_path / "auto.json"
    code, out, _ = run_cli(
        capsys,
        "build-combing", "--preset", "free2_sanov", "--radius", "7",
        "--lookahead", "2", "--output", str(auto),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["n_vertices"] == 5
    code, out, _ = run_cli(
        capsys, "spheres", "--preset", f"user:{auto}", "--n-max", "4"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["path_count"]) for r in rows] == [1, 4, 12, 36, 108]


def test_build_combing_requires_output(capsys):
    code, _, err = run_cli(capsys, "build-combing", "--preset", "free2_sanov")
    assert code == 2
    assert "output" in err


def test_unknown_preset_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--preset", "nope")
    assert code == 2
    assert "unknown preset" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["equidist", "--function", "[1]"],
        ["equidist", "--function", '[[[1,0],"x"]]'],
        ["equidist", "--function", "5"],
        ["kappa", "--n-max", "0"],
        ["markov-cesaro", "--n-max", "0"],
        ["sample-geodesic", "--length", "0"],
        ["kappa", "--start", "99"],
        ["kappa", "--end", "99"],
        ["markov-cesaro", "--start", "99"],
        ["markov-cesaro", "--end", "-1"],
        # a dict stands for a config file holding it: values of the wrong JSON type
        ["equidist", "--config", {"basepoint": 0.5}],
        ["equidist", "--config", {"k": 1}],
        ["equidist", "--config", {"preset": 3}],
        # ranges of lengths with no rows
        ["equidist", "--n-max", "0"],
        ["tv", "--n-max", "0"],
        ["spheres", "--n-max", "-1"],
        # config values that the option's flag could not give
        ["tv", "--config", {"n_max": None}],
        ["equidist", "--config", {"samples": 2.7}],
        ["equidist", "--config", {"seed": [1]}],
        ["spheres", "--config", {"n_max": True}],
        ["kappa", "--config", {"start": "first"}],
        ["spheres", "--config", {"cross_check": "no"}],
        ["equidist", "--config", {"json": 1}],
        ["equidist", "--config", {"forward": None}],
        ["equidist", "--config", {"mode": "fast"}],
    ],
)
def test_bad_input_exits_2_with_error_line(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    for i, a in enumerate(argv):
        if isinstance(a, dict):
            cfg.write_text(json.dumps(a))
            argv = argv[:i] + [str(cfg)] + argv[i + 1 :]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "\n" not in err.rstrip("\n")


@pytest.mark.parametrize(
    "command, values, flags",
    [
        ("tv", {"n_max": 3.0}, ["--n-max", "3"]),
        ("tv", {"n_max": "3"}, ["--n-max", "3"]),
        ("kappa", {"n_max": 3, "start": None, "end": None}, ["--n-max", "3"]),
        ("spheres", {"cross_check": False}, []),
        ("equidist", {"n_max": 2, "mode": "exact"}, ["--n-max", "2", "--mode", "exact"]),
    ],
)
def test_config_values_that_a_flag_could_give_are_taken(tmp_path, capsys, command, values, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    from_config = run_cli(capsys, command, "--config", str(cfg))
    assert from_config[0] == 0, from_config[2]
    assert from_config == run_cli(capsys, command, *flags)


_ORBIT_OPTIONS = {"preset", "basepoint", "k", "function", "output"}

# Every subcommand's options, which are also its config keys.
OPTIONS = {
    "analyze": {"preset", "output"},
    "spheres": {"preset", "output", "n_max", "cross_check"},
    "equidist": _ORBIT_OPTIONS
    | {"n_max", "mode", "samples", "seed", "budget", "forward", "json"},
    "kappa": _ORBIT_OPTIONS | {"n_max", "start", "end", "budget"},
    "markov-cesaro": _ORBIT_OPTIONS | {"n_max", "start", "end", "budget"},
    "tv": {"preset", "output", "n_max"},
    "sample-geodesic": _ORBIT_OPTIONS | {"length", "seed"},
    "build-combing": {"preset", "output", "radius", "lookahead", "verify_radius"},
}


def _subparsers() -> dict:
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_option_table_flags_per_subcommand():
    subparsers = _subparsers()
    assert set(subparsers) == set(OPTIONS)
    for command, names in OPTIONS.items():
        flags = {s for a in subparsers[command]._actions for s in a.option_strings}
        expected = {"--" + n.replace("_", "-") for n in names} | {"-h", "--help", "--config"}
        assert flags == expected, command


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_config_rejects_keys_of_other_subcommands(tmp_path, capsys, command):
    foreign = sorted(set().union(*OPTIONS.values()) - OPTIONS[command])[0]
    for key in (foreign, "nonsense"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert f"unknown config key {key!r}" in err
        assert out == ""


_TERMS = [[[1, 0], [0.5, 0.25]], [[0, 2], 1.0]]
_ORBIT_VALUES = {
    "preset": "free2_symbolic",
    "basepoint": "1/3,2/7",
    "k": "2,1",
    "function": _TERMS,
}

# A non-default value for every option of every subcommand, "output" aside.
NON_DEFAULT = {
    "analyze": {"preset": "dinf_involutions"},
    "spheres": {"preset": "free2_symbolic", "n_max": 5, "cross_check": True},
    "equidist": {
        **_ORBIT_VALUES, "n_max": 4, "mode": "mc", "samples": 20, "seed": 3,
        "budget": 1000, "forward": True, "json": True,
    },
    "kappa": {**_ORBIT_VALUES, "n_max": 5, "start": 1, "end": 2, "budget": 100000},
    "markov-cesaro": {**_ORBIT_VALUES, "n_max": 5, "start": 1, "end": 2, "budget": 100000},
    "tv": {"preset": "dinf_involutions", "n_max": 6},
    "sample-geodesic": {**_ORBIT_VALUES, "length": 200, "seed": 4},
    "build-combing": {"preset": "free2_symbolic", "radius": 6, "lookahead": 1, "verify_radius": 4},
}


def _as_flags(values: dict) -> list[str]:
    argv = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, value if isinstance(value, str) else json.dumps(value)]
    return argv


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_config_file_matches_flags_byte_for_byte(tmp_path, capsys, command):
    out_file = tmp_path / "report.out"
    values = {**NON_DEFAULT[command], "output": str(out_file)}
    assert set(values) == OPTIONS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    reports = []
    for argv in (["--config", str(cfg)], _as_flags(values)):
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 0, err
        reports.append((out, out_file.read_bytes()))
        out_file.unlink()
    assert reports[0] == reports[1]
    assert reports[0][1]
