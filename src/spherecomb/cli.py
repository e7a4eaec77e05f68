"""Batch experiment runner.

Every subcommand reads options from flags, optionally seeded by a JSON config
file (flags win), embeds the fully resolved configuration in its report, and
writes deterministic output: rerunning with the same config and seed produces
byte-identical files.  Reports carry no timestamps for that reason.

Options come from one table: ``_OPTIONS`` declares each option once, and a
subcommand's defaults dict in ``_COMMANDS`` is the only list of the options it
takes.  A config key is the option name (``n_max`` for ``--n-max``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

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
    elif isinstance(spec, list):
        parts = [str(s) for s in spec]
    else:
        raise SpherecombError(f"basepoint must be a list or a comma-separated string, not {spec!r}")
    if len(parts) != dim:
        raise SpherecombError(f"basepoint has {len(parts)} coordinates, torus needs {dim}")
    try:
        fracs = [Fraction(s) for s in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise SpherecombError(f"bad basepoint coordinate: {exc}") from None
    return TorusPoint.from_fractions(fracs)


def _parse_term(entry) -> tuple[tuple[int, ...], complex]:
    """One ``[[k1, ..., kd], coeff]`` entry; coeff is a number or a [re, im] pair."""
    try:
        k, coeff = entry
        if not isinstance(k, list):
            raise TypeError("the frequency is not a list")
        if isinstance(coeff, (int, float)):
            c = complex(coeff)
        else:
            re, im = coeff
            c = complex(re, im)
        return k, c
    except (TypeError, ValueError):
        raise SpherecombError(
            f"bad function term {entry!r}: expected [[k1, ..., kd], coeff]"
        ) from None


def _parse_function(k_spec, terms_spec, dim: int) -> TestFunction:
    """Either a single frequency vector (--k) or a full term list (--function)."""
    if terms_spec is not None:
        if isinstance(terms_spec, str):
            terms_spec = json.loads(terms_spec)
        if not isinstance(terms_spec, list):
            raise SpherecombError(f"function must be a JSON list of terms, not {terms_spec!r}")
        f = TestFunction(tuple(_parse_term(entry) for entry in terms_spec))
    elif k_spec is not None:
        k = k_spec
        if isinstance(k_spec, str):
            try:
                k = json.loads(f"[{k_spec}]")
            except ValueError:
                raise SpherecombError(f"k must be integers separated by commas, not {k_spec!r}") from None
        if not isinstance(k, list):
            raise SpherecombError(f"k must be a list of integers, not {k_spec!r}")
        f = TestFunction.character(k)
    else:
        f = TestFunction.character((1,) + (0,) * (dim - 1))
    if f.dim is not None and f.dim != dim:
        raise SpherecombError(f"function frequencies have {f.dim} entries, torus needs {dim}")
    return f


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_report(path: str | None, config: dict, results: dict) -> None:
    """``{"config": ..., "results": ...}`` as sorted, indented JSON, to path or stdout."""
    report = {"config": config, "results": results}
    _write_text(path, json.dumps(report, sort_keys=True, indent=2) + "\n")


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
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


def _config_value(key: str, value, default):
    """A config-file value as the option's flag would give it.

    An integer option takes an integer, an integral number or an integer
    string and gives ``int(value)``; a flag option takes true or false;
    choices are enforced; any other option takes a string, or also a list
    where its parser reads one (``_LIST_OPTIONS``).  Null is taken only
    where it is the default.
    """
    spec = _OPTIONS[key]
    if value is None and default is None:
        return None
    shown = json.dumps(value)
    if spec.get("type") is int:
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
        elif isinstance(value, int) and not isinstance(value, bool):
            return value
        elif isinstance(value, float) and value.is_integer():
            return int(value)
        raise SpherecombError(f"config key {key!r} must be an integer, not {shown}")
    if spec.get("action") == "store_const" and not isinstance(value, bool):
        raise SpherecombError(f"config key {key!r} must be true or false, not {shown}")
    if "choices" in spec and value not in spec["choices"]:
        choices = ", ".join(spec["choices"])
        raise SpherecombError(f"config key {key!r} must be one of {choices}, not {shown}")
    if isinstance(value, str) or "action" in spec:
        return value
    if key in _LIST_OPTIONS:
        if isinstance(value, list):
            return value
        raise SpherecombError(f"config key {key!r} must be a string or a list, not {shown}")
    raise SpherecombError(f"config key {key!r} must be a string, not {shown}")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags; unknown keys and mistyped values rejected.

    Config-file values are stored converted by :func:`_config_value`, so a
    config file and the same values given as flags resolve to equal dicts.
    """
    cfg = dict(defaults)
    file_cfg = _load_config(args.config)
    for key, value in file_cfg.items():
        if key not in defaults:
            raise SpherecombError(f"unknown config key {key!r} for this subcommand")
        cfg[key] = _config_value(key, value, defaults[key])
    for key in defaults:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def _n_max(cfg: dict, least: int = 1) -> int:
    """The largest length N of a report; a range of lengths with no rows is an error."""
    n_max = cfg["n_max"]
    if n_max < least:
        raise SpherecombError(f"N must be at least {least}, not {n_max}")
    return n_max


def _spectral_for(ps: Preset) -> spectral.SpectralData:
    return spectral.perron_data(spectral.transition_matrix(ps.graph))


def _orbit_inputs(cfg: dict) -> tuple[Preset, TorusPoint, TestFunction]:
    """The preset, the basepoint (the preset's unless given) and the test function."""
    ps = preset(cfg["preset"])
    dim = ps.system.dim
    spec = cfg["basepoint"]
    x = ps.basepoint if spec is None else _parse_basepoint(spec, dim)
    return ps, x, _parse_function(cfg["k"], cfg["function"], dim)


def _orbit_config(cfg: dict, command: str, f: TestFunction, **extra) -> dict:
    """The resolved config as an orbit report echoes it: ``--k`` folded into the term list."""
    function = [[list(k), [c.real, c.imag]] for k, c in f.terms]
    return {**cfg, "command": command, **extra, "function": function, "k": None}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(cfg: dict) -> int:
    ps = preset(cfg["preset"])
    data = _spectral_for(ps)
    cls = data.classification
    if data.primitive:
        label = "primitive"
    elif data.semisimple:
        label = "semisimple"
    else:  # perron_data has raised unless A is almost semisimple
        label = "almost_semisimple"
    _write_report(cfg["output"], {**cfg, "command": "analyze"}, {
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
    })
    return 0


def _cmd_spheres(cfg: dict) -> int:
    ps = preset(cfg["preset"])
    n_max = _n_max(cfg, least=0)
    counts = sphere_counts(ps.graph, n_max)
    if cfg["cross_check"]:
        bfs = cayley_sphere_counts(ps.system, n_max)
        header = ["n", "path_count", "cayley_count", "match"]
        rows = [[n, c, b, str(c == b).lower()] for n, (c, b) in enumerate(zip(counts, bfs))]
    else:
        header = ["n", "path_count"]
        rows = [[n, c] for n, c in enumerate(counts)]
    _write_text(cfg["output"], _csv_text(header, rows))
    return 0


def _cmd_equidist(cfg: dict) -> int:
    ps, x, f = _orbit_inputs(cfg)
    n_max = cfg["n_max"]
    budget = cfg["budget"]
    inverse = not cfg["forward"]
    mode = cfg["mode"]
    if mode == "auto":  # a length below 1 goes to the exact series, which rejects it
        mode = "mc" if n_max > 0 and sum(sphere_counts(ps.graph, n_max)) > budget else "exact"
    if mode == "exact":
        rep = equidist.sphere_series(ps.graph, x, f, n_max, inverse=inverse, budget=budget)
    else:
        rep = equidist.mc_series(
            ps.graph, _spectral_for(ps), x, f, n_max, cfg["samples"], cfg["seed"],
            inverse=inverse,
        )
    errs = rep.stderr or [None] * n_max
    if cfg["json"]:
        config = _orbit_config(cfg, "equidist", f, mode=mode, **_ECHOED_WORKERS)
        _write_report(cfg["output"], config, {
            "basepoint_fix64": list(x.coords),
            "n": list(rep.ns),
            "path_count": list(rep.path_counts),
            "spherical": [[v.real, v.imag] for v in rep.spherical],
            "cesaro": [[v.real, v.imag] for v in rep.cesaro],
            "stderr": list(errs),
        })
        return 0
    header = [
        "n", "path_count", "spherical_re", "spherical_im",
        "cesaro_re", "cesaro_im", "mode", "stderr",
    ]
    rows = [
        [n, count, _fmt(s.real), _fmt(s.imag), _fmt(c.real), _fmt(c.imag), mode,
         "" if e is None else _fmt(e)]
        for n, count, s, c, e in zip(rep.ns, rep.path_counts, rep.spherical, rep.cesaro, errs)
    ]
    _write_text(cfg["output"], _csv_text(header, rows))
    return 0


def _weighted_report(cfg: dict, command: str, x, f, res, **extra) -> int:
    """The report of ``kappa`` and ``markov-cesaro``: a value and its predicted limit."""
    _write_report(cfg["output"], _orbit_config(cfg, command, f, **_ECHOED_WORKERS, **extra), {
        "basepoint_fix64": list(x.coords),
        "value": [res.value.real, res.value.imag],
        "predicted_limit": [res.predicted_limit.real, res.predicted_limit.imag],
    })
    return 0


def _cmd_kappa(cfg: dict) -> int:
    ps, x, f = _orbit_inputs(cfg)
    res = equidist.kappa_average(
        ps.graph, x, f, cfg["n_max"], start=cfg["start"], end=cfg["end"], budget=cfg["budget"]
    )
    return _weighted_report(cfg, "kappa", x, f, res)


def _cmd_markov_cesaro(cfg: dict) -> int:
    ps, x, f = _orbit_inputs(cfg)
    model = markov.build_markov(ps.graph)
    start = ps.graph.initial if cfg["start"] is None else cfg["start"]
    end = ps.graph.initial if cfg["end"] is None else cfg["end"]
    res = equidist.markov_cesaro(model, x, f, cfg["n_max"], start, end, budget=cfg["budget"])
    return _weighted_report(cfg, "markov-cesaro", x, f, res, start=start, end=end)


def _cmd_tv(cfg: dict) -> int:
    ps = preset(cfg["preset"])
    data = _spectral_for(ps)
    rows = [
        [n, _fmt(markov.lambda_prime(ps.graph, data, n).tv_to_counting())]
        for n in range(1, _n_max(cfg) + 1)
    ]
    _write_text(cfg["output"], _csv_text(["n", "tv"], rows))
    return 0


def _cmd_sample_geodesic(cfg: dict) -> int:
    ps, x, f = _orbit_inputs(cfg)
    model = markov.build_markov(ps.graph)
    n = cfg["length"]
    value = equidist.random_geodesic_average(model, x, f, n, cfg["seed"])
    path = markov.sample_path(model, ps.graph.initial, min(n, 40), cfg["seed"])
    _write_report(cfg["output"], _orbit_config(cfg, "sample-geodesic", f), {
        "basepoint_fix64": list(x.coords),
        "ray_average": [value.real, value.imag],
        "ray_average_abs": abs(value),
        "word_prefix": "".join(path.word),
    })
    return 0


def _cmd_build_combing(cfg: dict) -> int:
    if cfg["output"] is None:
        raise SpherecombError("build-combing needs --output <file.json>")
    ps = preset(cfg["preset"])
    graph = build_cone_type_combing(ps.system, cfg["radius"], cfg["lookahead"])
    rep = combing.verify_geodesic(graph, cfg["verify_radius"])
    if not rep.passed:
        raise SpherecombError(f"built automaton failed verification: {rep.witness}")
    save_automaton(graph, cfg["output"])
    _write_report(None, {**cfg, "command": "build-combing"}, {  # the automaton went to --output
        "n_vertices": graph.n_vertices,
        "n_edges": len(graph.edges),
        "sphere_counts": list(rep.automaton_counts),
        "verified_to_radius": cfg["verify_radius"],
    })
    return 0


# ---------------------------------------------------------------------------
# option table and parser

# Each option once, as argparse keywords.  Its flag is "--" + the name with
# dashes for underscores, and its config key and dest are the name itself.
_FLAG = {"action": "store_const", "const": True}
_OPTIONS = {
    "preset": {"help": f"one of {', '.join(preset_names())}, or user:<automaton.json>"},
    "basepoint": {
        "help": "comma-separated decimal or fraction strings, one per torus coordinate",
    },
    "k": {"help": "character frequency vector, e.g. 1,0"},
    "function": {"help": "term list JSON, e.g. [[[1,0],[1,0]],[[0,1],[0.5,0]]]"},
    "output": {"help": "write the report here instead of stdout"},
    "n_max": {"type": int},
    "cross_check": {
        **_FLAG, "help": "also count spheres by breadth-first search over group elements",
    },
    "mode": {"choices": ["exact", "mc", "auto"]},
    "samples": {"type": int},
    "seed": {"type": int},
    "budget": {"type": int},
    "forward": {**_FLAG, "help": "average over w.x instead of w^-1.x"},
    "json": {**_FLAG, "help": "JSON report instead of CSV"},
    "start": {"type": int},
    "end": {"type": int},
    "length": {"type": int, "help": "number of steps along the sampled ray"},
    "radius": {"type": int},
    "lookahead": {"type": int},
    "verify_radius": {"type": int},
}

# String options whose config value may also be a JSON list, as their parsers read one.
_LIST_OPTIONS = frozenset({"basepoint", "k", "function"})

# The options of an orbit average: which preset, basepoint and test function.
_ORBIT = {"preset": "free2_sanov", "basepoint": None, "k": None, "function": None, "output": None}
_WEIGHTED = {**_ORBIT, "n_max": 12, "start": None, "end": None, "budget": DEFAULT_BUDGET}

# subcommand -> (handler, help line, defaults); the defaults' keys are its options.
_COMMANDS = {
    "analyze": (
        _cmd_analyze, "spectral and component report for a preset",
        {"preset": "free2_sanov", "output": None},
    ),
    "spheres": (
        _cmd_spheres, "sphere count table",
        {"preset": "free2_sanov", "output": None, "n_max": 8, "cross_check": False},
    ),
    "equidist": (
        _cmd_equidist, "spherical and Cesaro average table",
        {**_ORBIT, "n_max": 12, "mode": "auto", "samples": 2000, "seed": 0,
         "budget": DEFAULT_BUDGET, "forward": False, "json": False},
    ),
    "kappa": (_cmd_kappa, "counting-normalized Cesaro average", _WEIGHTED),
    "markov-cesaro": (_cmd_markov_cesaro, "Markov-weighted Cesaro average", _WEIGHTED),
    "tv": (
        _cmd_tv, "distance of the sampling measure from counting measure",
        {"preset": "free2_sanov", "output": None, "n_max": 10},
    ),
    "sample-geodesic": (
        _cmd_sample_geodesic, "average along one sampled geodesic ray",
        {**_ORBIT, "length": 10000, "seed": 0},
    ),
    "build-combing": (
        _cmd_build_combing, "build and save a cone-type automaton",
        {"preset": "free2_sanov", "output": None, "radius": 8, "lookahead": 2,
         "verify_radius": 6},
    ),
}


class _Parser(argparse.ArgumentParser):
    """``--k -1,2`` reads as ``--k=-1,2``; argparse alone takes ``-1,2`` for an option."""

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for arg in sys.argv[1:] if args is None else args:
            opt = self._option_string_actions.get(joined[-1]) if joined else None
            if opt and opt.nargs is None and arg[:1] == "-" and arg[1:2] not in ("", "-"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built once per process: parsing does not change it."""
    parser = _Parser(
        prog="spherecomb",
        description="Sphere and path averages for matrix groups acting on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, defaults) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_line)
        sp.add_argument("--config", help="JSON config file; flags override its entries")
        for name in defaults:
            sp.add_argument("--" + name.replace("_", "-"), dest=name, **_OPTIONS[name])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, defaults = _COMMANDS[args.command]
    try:
        return handler(_resolve(args, defaults))
    except (SpherecombError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
