"""Command line interface: reports, determinism, config handling, exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from spherecomb import TestFunction, cli, equidist, preset, spectral
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


def test_mc_forward_averages_w_x(capsys):
    argv = [
        "equidist", "--n-max", "3", "--mode", "mc", "--samples", "200", "--seed", "1",
        "--json",
    ]
    code, out, err = run_cli(capsys, *argv, "--forward")
    assert code == 0, err
    results = json.loads(out)["results"]
    ps = preset("free2_sanov")
    data = spectral.perron_data(spectral.transition_matrix(ps.graph))
    f = TestFunction.character((1, 0))
    children = np.random.SeedSequence(1).spawn(3)
    for n, child in enumerate(children, start=1):
        est = equidist.mc_spherical(
            ps.graph, data, ps.basepoint, f, n, 200, np.random.default_rng(child),
            inverse=False,
        )
        assert results["spherical"][n - 1] == [est.value.real, est.value.imag]
        assert results["stderr"][n - 1] == est.stderr
    assert json.loads(run_cli(capsys, *argv)[1])["results"] != results
    # auto mode falling back to Monte Carlo averages the same way
    auto = ["--mode", "auto", "--budget", "10", "--forward"]
    code, out, err = run_cli(capsys, *argv, *auto)
    assert code == 0, err
    assert json.loads(out)["results"] == results
    # the library's Monte Carlo series is the report's
    rep = equidist.mc_series(ps.graph, data, ps.basepoint, f, 3, 200, 1, inverse=False)
    assert rep.mode == "mc" and (rep.samples, rep.seed) == (200, 1)
    assert results["n"] == list(rep.ns)
    assert results["path_count"] == list(rep.path_counts)
    assert results["spherical"] == [[v.real, v.imag] for v in rep.spherical]
    assert results["cesaro"] == [[v.real, v.imag] for v in rep.cesaro]
    assert results["stderr"] == list(rep.stderr)


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


def test_python_m_spherecomb_runs_the_cli(capsys):
    argv = ["equidist", "--preset", "free2_sanov", "--n-max", "4", "--k", "1,2"]
    code, out, _ = run_cli(capsys, *argv)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spherecomb", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0


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


def _free_group_file(m: int) -> dict:
    """No-backtracking automaton of the free group <[[1,m],[0,1]], [[1,0],[m,1]]>."""
    gens = [("a", "A", [[1, m], [0, 1]]), ("A", "a", [[1, -m], [0, 1]]),
            ("b", "B", [[1, 0], [m, 1]]), ("B", "b", [[1, 0], [-m, 1]])]
    inverse = {s: t for s, t, _ in gens}
    labels = list(inverse)
    edges = [[0, 1 + i, s] for i, s in enumerate(labels)]
    edges += [[1 + i, 1 + j, t] for i, s in enumerate(labels)
              for j, t in enumerate(labels) if t != inverse[s]]
    return {
        "dim": 2,
        "generators": [{"label": s, "inverse": t, "matrix": rows} for s, t, rows in gens],
        "vertices": 5,
        "initial": 0,
        "edges": edges,
    }


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


# sha256 of the reports of the Cayley ball's consumers, recorded when each
# product of the ball was a Python sum over a row and a column
_FREE_SPHERES = "3bda1fdfdfa705007d1485edf6b12c3c8ec1fed776ba6ea19e74811e0ea0b518"
_FINITE_GROWTH_SPHERES = "44fe248b9ea8436255726e2571ab4cee92354bb1409917d1bc5509eae82fe345"


@pytest.mark.parametrize("m, stdout_digest, file_digest", [
    (2, "9560c88176b619b38e1695ba78a065623c53be46928394f2c00947bf32f7d091",
     "5e88b461f9c8f73db77ddeaeeeb457f5bf7b240b349ec4368ee846a9284b2ab7"),
    (3, "f551c0e2fcfca2b059868dd38ad039d09046f01ba92debcc56117f411cdf5c4b",
     "3f51ce402ade0fe0d8a10df96e66f6fdd9840bd6ac7950059a10c92974fa06f3"),
    (4, "1294c3dffef9cd1f9abfbce7be501803af951597d16525da0a3ed5b5fb4c9d66",
     "c5f296023a538f8bbd79ab90250d04f328e7d68a6e40f075f05dd5c3102a7d92"),
])
def test_build_combing_and_cross_check_bytes_on_free_groups(
    tmp_path, monkeypatch, capsys, m, stdout_digest, file_digest
):
    # relative paths, so the echoed config does not depend on tmp_path
    monkeypatch.chdir(tmp_path)
    Path(f"free_m{m}.json").write_text(json.dumps(_free_group_file(m)))
    code, out, _ = run_cli(
        capsys, "build-combing", "--preset", f"user:free_m{m}.json", "--radius", "8",
        "--lookahead", "2", "--verify-radius", "6", "--output", f"combed_m{m}.json",
    )
    assert code == 0
    assert _sha256(out) == stdout_digest
    assert _sha256(Path(f"combed_m{m}.json").read_bytes()) == file_digest
    for source in (f"free_m{m}.json", f"combed_m{m}.json"):
        code, out, _ = run_cli(
            capsys, "spheres", "--preset", f"user:{source}", "--n-max", "8", "--cross-check"
        )
        assert (code, _sha256(out)) == (0, _FREE_SPHERES)


@pytest.mark.parametrize("name, digest", [
    ("free2_sanov", _FREE_SPHERES),
    ("free2_symbolic", _FREE_SPHERES),
    ("z_parabolic", _FINITE_GROWTH_SPHERES),
    ("dinf_involutions", _FINITE_GROWTH_SPHERES),
])
def test_spheres_cross_check_bytes_on_presets(capsys, name, digest):
    code, out, _ = run_cli(capsys, "spheres", "--preset", name, "--n-max", "8", "--cross-check")
    assert (code, _sha256(out)) == (0, digest)


def _write_unit_automaton(path, n_vertices, pairs):
    """A dimension-1 user automaton with edges labeled "a": only its graph matters."""
    path.write_text(json.dumps({
        "dim": 1,
        "generators": [{"label": "a", "inverse": "A", "matrix": [[1]]},
                       {"label": "A", "inverse": "a", "matrix": [[1]]}],
        "vertices": n_vertices,
        "initial": 0,
        "edges": [[u, v, "a"] for u, v in pairs],
    }))
    return f"user:{path}"


def test_analyze_sub_maximal_component_feeding_the_maximal_one(tmp_path, capsys):
    # transition matrix [[2,1,0,0,0],[0,0,0,1,0],[0,0,1,0,0],[0,2,2,0,1],[0,1,2,2,0]],
    # with parallel edges for the 2s: almost semisimple, lambda = 2.11491
    rows = [[2, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 2, 2, 0, 1], [0, 1, 2, 2, 0]]
    pairs = [(u, v) for u, row in enumerate(rows) for v, m in enumerate(row) for _ in range(m)]
    name = _write_unit_automaton(tmp_path / "feeds_maximal.json", 5, pairs)
    code, out, err = run_cli(capsys, "analyze", "--preset", name)
    assert code == 0, err
    res = json.loads(out)["results"]
    assert res["class"] == "semisimple"
    assert abs(res["lam"] - 2.11491) <= 1e-5


def test_analyze_joined_maximal_components_exits_2(tmp_path, capsys):
    # two radius-2 components, 0 and 1, joined by the edge 0 -> 1
    pairs = [(0, 0), (0, 0), (0, 1), (1, 1), (1, 1)]
    name = _write_unit_automaton(tmp_path / "joined.json", 2, pairs)
    code, out, err = run_cli(capsys, "analyze", "--preset", name)
    assert code == 2
    assert out == ""
    assert err == "error: a directed path joins two maximal components; A^n/lambda^n diverges\n"


def test_analyze_primitive_user_automaton(tmp_path, capsys):
    # one strongly connected component with cycles of lengths 1 and 2
    name = _write_unit_automaton(tmp_path / "primitive.json", 2, [(0, 0), (0, 1), (1, 0)])
    code, out, err = run_cli(capsys, "analyze", "--preset", name)
    assert code == 0, err
    res = json.loads(out)["results"]
    assert res["class"] == "primitive"
    assert res["primitive"] and res["semisimple"] and res["almost_semisimple"]
    assert abs(res["lam"] - (1 + 5**0.5) / 2) <= 1e-12


def test_config_basepoint_list_matches_the_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basepoint": ["1/4", "0"]}))
    reports = [
        run_cli(capsys, "equidist", "--preset", "z_parabolic", "--n-max", "2", *extra)
        for extra in (["--config", str(cfg)], ["--basepoint", "1/4,0"])
    ]
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["equidist", "--basepoint", "1/0,0"],
         "error: bad basepoint coordinate: Fraction(1, 0)\n"),
        (["equidist", "--k", "1,0,0"],
         "error: function frequencies have 3 entries, torus needs 2\n"),
        (["equidist", "--config", [1]], "error: config file {cfg} must hold a JSON object\n"),
        (["equidist", "--function", "[[1, 1]]"],
         "error: bad function term [1, 1]: expected [[k1, ..., kd], coeff]\n"),
        (["equidist", "--function", '[["10", 1]]'],
         "error: bad function term ['10', 1]: expected [[k1, ..., kd], coeff]\n"),
        # a negative seed is refused by name where the run draws with it
        (["equidist", "--mode", "mc", "--seed", "-1"], "error: seed must be nonnegative\n"),
        (["equidist", "--budget", "10", "--seed", "-2"], "error: seed must be nonnegative\n"),
        (["equidist", "--mode", "mc", "--config", {"seed": -1}],
         "error: seed must be nonnegative\n"),
        (["sample-geodesic", "--seed", "-3"], "error: seed must be nonnegative\n"),
        (["sample-geodesic", "--config", {"seed": -3}], "error: seed must be nonnegative\n"),
    ],
    ids=["zero-denominator", "frequency-too-long", "config-list", "frequency-number",
         "frequency-string", "mc-seed-flag", "auto-fallback-seed-flag", "mc-seed-config",
         "ray-seed-flag", "ray-seed-config"],
)
def test_bad_input_messages(tmp_path, capsys, argv, message):
    cfg = tmp_path / "cfg.json"
    if isinstance(argv[-1], (list, dict)):  # a config file holding it
        cfg.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message.format(cfg=cfg)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv, key, null",
    [
        # dinf_involutions has p* = 2, so no c predicts the kappa limit
        (["kappa", "--preset", "dinf_involutions", "--n-max", "3"], "predicted_limit", [None, None]),
        # one sample per level has no standard error
        (["equidist", "--mode", "mc", "--samples", "1", "--n-max", "3", "--json"], "stderr",
         [None, None, None]),
    ],
    ids=["kappa-p-star-2", "mc-one-sample"],
)
def test_reports_are_strict_json(capsys, argv, key, null):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["results"][key] == null


def test_a_non_finite_report_value_raises():
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        cli._write_report(None, {}, {"value": float("nan")})


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["--function", "[[[1.5,0],[1,0]]]"], "1.5"),
        (["--function", "[[[true,0],[1,0]]]"], "True"),
        (["--k", "1.5,0"], "1.5"),
        (["--config", {"k": [1.9, 0]}], "1.9"),
    ],
    ids=["function-float", "function-bool", "k-flag-float", "k-config-float"],
)
def test_non_integer_frequency_exits_2(tmp_path, capsys, argv, entry):
    # rejected by name, never truncated to the (1, 0) character's table
    if isinstance(argv[-1], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(cfg)]
    code, out, err = run_cli(capsys, "equidist", "--mode", "exact", "--n-max", "3", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: frequency entry {entry} is not an integer\n"


@pytest.mark.parametrize("output", [2, True, ["x"]])
def test_config_output_that_is_no_string_exits_2_and_writes_nothing(tmp_path, output):
    # in a separate process: open() takes a number as a file descriptor of the process
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": output}))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spherecomb", "analyze", "--config", str(cfg)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    shown = json.dumps(output)
    assert proc.stderr == f"error: config key 'output' must be a string, not {shown}\n"
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


def _readme_commands() -> list[list[str]]:
    """Every ``spherecomb ...`` line of README's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["spherecomb"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(OPTIONS)  # every subcommand is shown
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: spherecomb {shlex.join(argv)}")


@pytest.mark.parametrize(
    "flag, value",
    [("--k", "-1,2"), ("--basepoint", "-1/3,0"), ("--basepoint", "-.25,0")],
)
def test_negative_value_after_its_flag_is_the_flags_value(capsys, flag, value):
    argv = ["equidist", "--preset", "free2_sanov", "--n-max", "4"]
    spaced = run_cli(capsys, *argv, flag, value)
    assert spaced == run_cli(capsys, *argv, f"{flag}={value}")
    assert spaced[0] == 0


def test_main_builds_the_parser_once(capsys):
    made = []
    init = cli._Parser.__init__

    def recording_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    with mock.patch.object(cli._Parser, "__init__", recording_init):
        first = run_cli(capsys, "spheres", "--n-max", "3")
        assert run_cli(capsys, "spheres", "--n-max", "3") == first
    assert first[0] == 0
    # the root parser and one subparser per command, all on the first call
    assert made.count("spherecomb") == 1
    assert len(made) == 1 + len(cli._COMMANDS)


def test_option_after_a_value_taking_option_is_not_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equidist", "--k", "--json"])
    assert exc.value.code == 2
    assert "argument --k: expected one argument" in capsys.readouterr().err


def test_malformed_automaton_file_exits_2_without_traceback(tmp_path):
    auto = tmp_path / "bad.json"
    auto.write_text(json.dumps({
        "dim": 1,
        "generators": [{"label": "a", "inverse": "A", "matrix": [[1]]},
                       {"label": "A", "inverse": "a", "matrix": [[1]]}],
        "vertices": 1,
        "initial": 0,
        "edges": [5],
    }))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spherecomb", "analyze", "--preset", f"user:{auto}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "edge 0 must be [src, dst, label]" in proc.stderr


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


def test_monte_carlo_past_the_sampling_limit_is_one_error_line(capsys):
    # free2_sanov has 4 * 3**39 > 2**63 paths of length 40 from its start
    argv = ["equidist", "--preset", "free2_sanov", "--k", "1,0", "--n-max", "41"]
    code, out, err = run_cli(capsys, *argv, "--mode", "mc", "--samples", "10", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == (
        f"error: length 40 is past the sampling limit: {4 * 3**39} paths of length 40"
        " from vertex 0, and a uniform draw takes at most 2**63\n"
    )


@pytest.mark.parametrize(
    "command, values, flags",
    [
        ("tv", {"n_max": 3.0}, ["--n-max", "3"]),
        ("tv", {"n_max": "3"}, ["--n-max", "3"]),
        ("kappa", {"n_max": 3, "start": None, "end": None}, ["--n-max", "3"]),
        ("spheres", {"cross_check": False}, []),
        ("equidist", {"n_max": 2, "mode": "exact"}, ["--n-max", "2", "--mode", "exact"]),
        ("kappa", {"n_max": "3"}, ["--n-max", "3"]),
        ("markov-cesaro", {"n_max": 4.0, "start": "1"}, ["--n-max", "4", "--start", "1"]),
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


def _config_and_flag_reports(tmp_path, capsys, command, spell=lambda v: v) -> list:
    """stdout and the written file of one run from a config file, one from flags.

    ``spell`` rewrites each integer value in the config file only.
    """
    out_file = tmp_path / "report.out"
    values = {**NON_DEFAULT[command], "output": str(out_file)}
    assert set(values) == OPTIONS[command]
    spelled = {
        k: spell(v) if isinstance(v, int) and not isinstance(v, bool) else v
        for k, v in values.items()
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spelled))
    reports = []
    for argv in (["--config", str(cfg)], _as_flags(values)):
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 0, err
        reports.append((out, out_file.read_bytes()))
        out_file.unlink()
    return reports


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_config_file_matches_flags_byte_for_byte(tmp_path, capsys, command):
    reports = _config_and_flag_reports(tmp_path, capsys, command)
    assert reports[0] == reports[1]
    assert reports[0][1]


@pytest.mark.parametrize("spell", [str, float])
@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_config_integers_as_strings_or_floats_match_flags(tmp_path, capsys, command, spell):
    reports = _config_and_flag_reports(tmp_path, capsys, command, spell)
    assert reports[0] == reports[1]


def test_python_m_spherecomb_prints_the_spheres_and_one_error_line(capsys):
    code, out, _ = run_cli(capsys, "spheres", "--n-max", "3")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    ok, bad = (
        subprocess.run(
            [sys.executable, "-m", "spherecomb", "spheres", "--n-max", n],
            capture_output=True, text=True, env=env, timeout=120,
        )
        for n in ("3", "-1")
    )
    assert (code, ok.returncode, ok.stdout) == (0, 0, out)
    assert (bad.returncode, bad.stdout, bad.stderr) == (2, "", "error: length must be nonnegative\n")


def test_auto_mode_runs_the_exact_series_up_to_its_budget(capsys):
    # free2_sanov has 1 + 4 + 12 + 36 = 53 paths of length at most 3
    argv = ["equidist", "--n-max", "3", "--samples", "20", "--seed", "1"]
    code, exact, _ = run_cli(capsys, *argv, "--mode", "exact", "--budget", "53")
    assert code == 0
    for budget, mode in (("53", "exact"), ("52", "mc")):
        code, out, _ = run_cli(capsys, *argv, "--mode", "auto", "--budget", budget)
        assert code == 0
        assert {row["mode"] for row in csv.DictReader(io.StringIO(out))} == {mode}
        if mode == "exact":
            assert out == exact
    code, out, err = run_cli(capsys, *argv, "--mode", "exact", "--budget", "52")
    assert (code, out) == (2, "")
    assert err == (
        "error: enumeration needs 53 nodes, budget is 52; "
        "switch to Monte Carlo mode or raise the budget\n"
    )
