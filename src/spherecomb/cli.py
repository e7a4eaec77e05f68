"""Batch experiment runner.

Every subcommand reads options from flags, optionally seeded by a JSON config
file (flags win), embeds the fully resolved configuration in its report, and
writes deterministic output: rerunning with the same config and seed produces
byte-identical files.  Reports carry no timestamps for that reason.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import combing, equidist, markov, spectral
from .algebra import TorusPoint
from .combing import build_cone_type_combing, cayley_sphere_counts, save_automaton, sphere_counts
from .equidist import DEFAULT_BUDGET, TestFunction
from .errors import SpherecombError
from .presets import Preset, preset, preset_names

# Orbit reports echo the former pool size so their bytes stay unchanged; no longer an input.
_ECHOED_WORKERS = {"workers": os.cpu_count() or 1}


def _parse_basepoint(spec, dim: int) -> TorusPoint:
    """Decimal or fraction strings, one per coordinate, rounded to fixed point."""
    if isinstance(spec, str):
        parts = [s.strip() for s in spec.split(",")]
    else:
        parts = [str(s) for s in spec]
    if len(parts) != dim:
        raise SpherecombError(f"basepoint has {len(parts)} coordinates, torus needs {dim}")
    try:
        fracs = [Fraction(s) for s in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise SpherecombError(f"bad basepoint coordinate: {exc}") from None
    return TorusPoint.from_fractions(fracs)


def _parse_function(k_spec, terms_spec, dim: int) -> TestFunction:
    """Either a single frequency vector (--k) or a full term list (--function)."""
    if terms_spec is not None:
        if isinstance(terms_spec, str):
            terms_spec = json.loads(terms_spec)
        terms = []
        for entry in terms_spec:
            k, coeff = entry
            if isinstance(coeff, (int, float)):
                c = complex(coeff)
            else:
                c = complex(coeff[0], coeff[1])
            terms.append((tuple(int(v) for v in k), c))
        f = TestFunction(tuple(terms))
    elif k_spec is not None:
        if isinstance(k_spec, str):
            k = tuple(int(s) for s in k_spec.split(","))
        else:
            k = tuple(int(v) for v in k_spec)
        f = TestFunction.character(k)
    else:
        f = TestFunction.character((1,) + (0,) * (dim - 1))
    if f.dim is not None and f.dim != dim:
        raise SpherecombError(f"function frequencies have {f.dim} entries, torus needs {dim}")
    return f


def _function_echo(f: TestFunction) -> list:
    return [[list(k), [c.real, c.imag]] for k, c in f.terms]


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise SpherecombError(f"config file {path} must hold a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags; unknown config keys rejected."""
    cfg = dict(defaults)
    file_cfg = _load_config(args.config)
    for key, value in file_cfg.items():
        if key not in defaults:
            raise SpherecombError(f"unknown config key {key!r} for this subcommand")
        cfg[key] = value
    for key in defaults:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def _get_preset(cfg: dict) -> Preset:
    return preset(cfg["preset"])


def _spectral_for(ps: Preset) -> spectral.SpectralData:
    return spectral.perron_data(spectral.transition_matrix(ps.graph))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    cfg = _resolve(args, {"preset": "free2_sanov", "output": None})
    ps = _get_preset(cfg)
    data = _spectral_for(ps)
    cls = data.classification
    if data.primitive:
        label = "primitive"
    elif data.semisimple:
        label = "semisimple"
    elif data.almost_semisimple:
        label = "almost_semisimple"
    else:
        label = "not_almost_semisimple"
    report = {
        "config": {**cfg, "command": "analyze"},
        "results": {
            "n_vertices": ps.graph.n_vertices,
            "n_edges": len(ps.graph.edges),
            "initial": ps.graph.initial,
            "lam": data.lam,
            "p_star": data.p_star,
            "class": label,
            "primitive": data.primitive,
            "semisimple": data.semisimple,
            "almost_semisimple": data.almost_semisimple,
            "p": [float(v) for v in data.p],
            "q": [float(v) for v in data.q],
            "pi": [float(v) for v in data.pi],
            "c": data.c,
            "growth_constants": list(spectral.growth_constants(data)),
            "components": [sorted(comp) for comp in cls.components],
            "component_radii": list(cls.radii),
            "component_periods": list(cls.periods),
            "maximal_components": list(cls.maximal),
            "large_growth_vertices": sorted(cls.large_growth),
            "coreachable_vertices": sorted(cls.coreachable),
        },
    }
    _write_text(cfg["output"], _json_report(report))
    return 0


def _cmd_spheres(args) -> int:
    cfg = _resolve(
        args,
        {"preset": "free2_sanov", "n_max": 8, "cross_check": False, "output": None},
    )
    ps = _get_preset(cfg)
    n_max = int(cfg["n_max"])
    counts = sphere_counts(ps.graph, n_max)
    rows = []
    if cfg["cross_check"]:
        bfs = cayley_sphere_counts(ps.system, n_max)
        header = ["n", "path_count", "cayley_count", "match"]
        for n in range(n_max + 1):
            rows.append([n, counts[n], bfs[n], str(counts[n] == bfs[n]).lower()])
    else:
        header = ["n", "path_count"]
        for n in range(n_max + 1):
            rows.append([n, counts[n]])
    _write_text(cfg["output"], _csv_text(header, rows))
    return 0


def _mc_series(graph, data, x, f, n_max, samples, seed):
    """Per-length Monte Carlo estimates with running Cesaro means."""
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(n_max)
    sph, errs = [], []
    for n in range(1, n_max + 1):
        est = equidist.mc_spherical(
            graph, data, x, f, n, samples, np.random.default_rng(children[n - 1])
        )
        sph.append(est.value)
        errs.append(est.stderr)
    ces = []
    acc = 0.0 + 0.0j
    for n, v in enumerate(sph, start=1):
        acc += v
        ces.append(acc / n)
    return sph, ces, errs


def _cmd_equidist(args) -> int:
    defaults = {
        "preset": "free2_sanov",
        "basepoint": None,
        "k": None,
        "function": None,
        "n_max": 12,
        "mode": "auto",
        "samples": 2000,
        "seed": 0,
        "budget": DEFAULT_BUDGET,
        "forward": False,
        "output": None,
        "json": False,
    }
    cfg = _resolve(args, defaults)
    ps = _get_preset(cfg)
    dim = ps.system.dim
    x = ps.basepoint if cfg["basepoint"] is None else _parse_basepoint(cfg["basepoint"], dim)
    f = _parse_function(cfg["k"], cfg["function"], dim)
    n_max = int(cfg["n_max"])
    budget = int(cfg["budget"])
    inverse = not cfg["forward"]
    mode = cfg["mode"]
    if mode not in ("exact", "mc", "auto"):
        raise SpherecombError(f"mode must be exact, mc or auto, not {mode!r}")
    counts = sphere_counts(ps.graph, n_max)
    if mode == "auto":
        mode = "exact" if sum(counts) <= budget else "mc"
    if mode == "exact":
        rep = equidist.sphere_series(ps.graph, x, f, n_max, inverse=inverse, budget=budget)
        sph, ces, errs = list(rep.spherical), list(rep.cesaro), [None] * n_max
    else:
        data = _spectral_for(ps)
        sph, ces, errs = _mc_series(
            ps.graph, data, x, f, n_max, int(cfg["samples"]), int(cfg["seed"])
        )
    resolved = {
        **cfg,
        "command": "equidist",
        "mode": mode,
        **_ECHOED_WORKERS,
        "function": _function_echo(f),
        "k": None,
    }
    if cfg["json"]:
        report = {
            "config": resolved,
            "results": {
                "basepoint_fix64": list(x.coords),
                "n": list(range(1, n_max + 1)),
                "path_count": list(counts[1:]),
                "spherical": [[v.real, v.imag] for v in sph],
                "cesaro": [[v.real, v.imag] for v in ces],
                "stderr": [e for e in errs],
            },
        }
        _write_text(cfg["output"], _json_report(report))
        return 0
    header = [
        "n", "path_count", "spherical_re", "spherical_im",
        "cesaro_re", "cesaro_im", "mode", "stderr",
    ]
    rows = []
    for i, n in enumerate(range(1, n_max + 1)):
        rows.append(
            [
                n,
                counts[n],
                _fmt(sph[i].real),
                _fmt(sph[i].imag),
                _fmt(ces[i].real),
                _fmt(ces[i].imag),
                mode,
                "" if errs[i] is None else _fmt(errs[i]),
            ]
        )
    _write_text(cfg["output"], _csv_text(header, rows))
    return 0


def _cmd_kappa(args) -> int:
    defaults = {
        "preset": "free2_sanov",
        "basepoint": None,
        "k": None,
        "function": None,
        "n_max": 12,
        "start": None,
        "end": None,
        "budget": DEFAULT_BUDGET,
        "output": None,
    }
    cfg = _resolve(args, defaults)
    ps = _get_preset(cfg)
    dim = ps.system.dim
    x = ps.basepoint if cfg["basepoint"] is None else _parse_basepoint(cfg["basepoint"], dim)
    f = _parse_function(cfg["k"], cfg["function"], dim)
    data = _spectral_for(ps)
    res = equidist.kappa_average(
        ps.graph,
        x,
        f,
        int(cfg["n_max"]),
        data=data,
        start=None if cfg["start"] is None else int(cfg["start"]),
        end=None if cfg["end"] is None else int(cfg["end"]),
        budget=int(cfg["budget"]),
    )
    report = {
        "config": {**cfg, "command": "kappa", **_ECHOED_WORKERS,
                   "function": _function_echo(f), "k": None},
        "results": {
            "basepoint_fix64": list(x.coords),
            "value": [res.value.real, res.value.imag],
            "predicted_limit": [res.predicted_limit.real, res.predicted_limit.imag],
        },
    }
    _write_text(cfg["output"], _json_report(report))
    return 0


def _cmd_markov_cesaro(args) -> int:
    defaults = {
        "preset": "free2_sanov",
        "basepoint": None,
        "k": None,
        "function": None,
        "n_max": 12,
        "start": None,
        "end": None,
        "budget": DEFAULT_BUDGET,
        "output": None,
    }
    cfg = _resolve(args, defaults)
    ps = _get_preset(cfg)
    dim = ps.system.dim
    x = ps.basepoint if cfg["basepoint"] is None else _parse_basepoint(cfg["basepoint"], dim)
    f = _parse_function(cfg["k"], cfg["function"], dim)
    data = _spectral_for(ps)
    model = markov.build_markov(ps.graph, data)
    start = ps.graph.initial if cfg["start"] is None else int(cfg["start"])
    end = ps.graph.initial if cfg["end"] is None else int(cfg["end"])
    res = equidist.markov_cesaro(
        model, x, f, int(cfg["n_max"]), start, end,
        budget=int(cfg["budget"]),
    )
    report = {
        "config": {**cfg, "command": "markov-cesaro", **_ECHOED_WORKERS,
                   "function": _function_echo(f), "k": None,
                   "start": start, "end": end},
        "results": {
            "basepoint_fix64": list(x.coords),
            "value": [res.value.real, res.value.imag],
            "predicted_limit": [res.predicted_limit.real, res.predicted_limit.imag],
        },
    }
    _write_text(cfg["output"], _json_report(report))
    return 0


def _cmd_tv(args) -> int:
    cfg = _resolve(args, {"preset": "free2_sanov", "n_max": 10, "output": None})
    ps = _get_preset(cfg)
    data = _spectral_for(ps)
    header = ["n", "tv"]
    rows = []
    for n in range(1, int(cfg["n_max"]) + 1):
        lp = markov.lambda_prime(ps.graph, data, n)
        rows.append([n, _fmt(lp.tv_to_counting())])
    _write_text(cfg["output"], _csv_text(header, rows))
    return 0


def _cmd_sample_geodesic(args) -> int:
    defaults = {
        "preset": "free2_sanov",
        "basepoint": None,
        "k": None,
        "function": None,
        "length": 10000,
        "seed": 0,
        "output": None,
    }
    cfg = _resolve(args, defaults)
    ps = _get_preset(cfg)
    dim = ps.system.dim
    x = ps.basepoint if cfg["basepoint"] is None else _parse_basepoint(cfg["basepoint"], dim)
    f = _parse_function(cfg["k"], cfg["function"], dim)
    data = _spectral_for(ps)
    model = markov.build_markov(ps.graph, data)
    n = int(cfg["length"])
    value = equidist.random_geodesic_average(model, x, f, n, int(cfg["seed"]))
    path = markov.sample_path(model, ps.graph.initial, min(n, 40), int(cfg["seed"]))
    report = {
        "config": {**cfg, "command": "sample-geodesic",
                   "function": _function_echo(f), "k": None},
        "results": {
            "basepoint_fix64": list(x.coords),
            "ray_average": [value.real, value.imag],
            "ray_average_abs": abs(value),
            "word_prefix": "".join(path.word),
        },
    }
    _write_text(cfg["output"], _json_report(report))
    return 0


def _cmd_build_combing(args) -> int:
    defaults = {
        "preset": "free2_sanov",
        "radius": 8,
        "lookahead": 2,
        "output": None,
        "verify_radius": 6,
    }
    cfg = _resolve(args, defaults)
    if cfg["output"] is None:
        raise SpherecombError("build-combing needs --output <file.json>")
    ps = _get_preset(cfg)
    graph = build_cone_type_combing(ps.system, int(cfg["radius"]), int(cfg["lookahead"]))
    rep = combing.verify_geodesic(graph, int(cfg["verify_radius"]))
    if not rep.passed:
        raise SpherecombError(f"built automaton failed verification: {rep.witness}")
    save_automaton(graph, cfg["output"])
    summary = {
        "config": {**cfg, "command": "build-combing"},
        "results": {
            "n_vertices": graph.n_vertices,
            "n_edges": len(graph.edges),
            "sphere_counts": list(sphere_counts(graph, int(cfg["verify_radius"]))),
            "verified_to_radius": int(cfg["verify_radius"]),
        },
    }
    sys.stdout.write(_json_report(summary))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sp, *names):
    sp.add_argument("--config", help="JSON config file; flags override its entries")
    if "preset" in names:
        sp.add_argument(
            "--preset",
            help=f"one of {', '.join(preset_names())}, or user:<automaton.json>",
        )
    if "basepoint" in names:
        sp.add_argument(
            "--basepoint",
            help="comma-separated decimal or fraction strings, one per torus coordinate",
        )
    if "function" in names:
        sp.add_argument("--k", help="character frequency vector, e.g. 1,0")
        sp.add_argument(
            "--function",
            help='term list JSON, e.g. [[[1,0],[1,0]],[[0,1],[0.5,0]]]',
        )
    if "output" in names:
        sp.add_argument("--output", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherecomb",
        description="Sphere and path averages for matrix groups acting on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="spectral and component report for a preset")
    _add_common(sp, "preset", "output")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("spheres", help="sphere count table")
    _add_common(sp, "preset", "output")
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument(
        "--cross-check", dest="cross_check", action="store_const", const=True,
        help="also count spheres by breadth-first search over group elements",
    )
    sp.set_defaults(func=_cmd_spheres)

    sp = sub.add_parser("equidist", help="spherical and Cesaro average table")
    _add_common(sp, "preset", "basepoint", "function", "output")
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument("--mode", choices=["exact", "mc", "auto"])
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--budget", type=int)
    sp.add_argument(
        "--forward", action="store_const", const=True,
        help="average over w.x instead of w^-1.x",
    )
    sp.add_argument("--json", action="store_const", const=True, help="JSON report instead of CSV")
    sp.set_defaults(func=_cmd_equidist)

    sp = sub.add_parser("kappa", help="counting-normalized Cesaro average")
    _add_common(sp, "preset", "basepoint", "function", "output")
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument("--start", type=int)
    sp.add_argument("--end", type=int)
    sp.add_argument("--budget", type=int)
    sp.set_defaults(func=_cmd_kappa)

    sp = sub.add_parser("markov-cesaro", help="Markov-weighted Cesaro average")
    _add_common(sp, "preset", "basepoint", "function", "output")
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument("--start", type=int)
    sp.add_argument("--end", type=int)
    sp.add_argument("--budget", type=int)
    sp.set_defaults(func=_cmd_markov_cesaro)

    sp = sub.add_parser("tv", help="distance of the sampling measure from counting measure")
    _add_common(sp, "preset", "output")
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.set_defaults(func=_cmd_tv)

    sp = sub.add_parser("sample-geodesic", help="average along one sampled geodesic ray")
    _add_common(sp, "preset", "basepoint", "function", "output")
    sp.add_argument("--length", type=int, help="number of steps along the sampled ray")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=_cmd_sample_geodesic)

    sp = sub.add_parser("build-combing", help="build and save a cone-type automaton")
    _add_common(sp, "preset", "output")
    sp.add_argument("--radius", type=int)
    sp.add_argument("--lookahead", type=int)
    sp.add_argument("--verify-radius", dest="verify_radius", type=int)
    sp.set_defaults(func=_cmd_build_combing)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpherecombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
