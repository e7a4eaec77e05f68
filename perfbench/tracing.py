"""Spans around the program's public functions, recorded from outside.

The tracer replaces public module functions, names that one module imports
from another (``equidist.word_act``), and three hot methods with wrappers
that record a span: function id, start, end, parent span and job id.  A
function's layer is the module that defines it, so ``equidist.word_act``
counts as ``algebra``.  Only names that exist are wrapped: a later change
that deletes one leaves the metrics made from it out of the result instead
of failing the run.  A metric of a function that exists but did no work
reads 0.
Generator functions are left alone, since their work happens after the call
returns; it lands in the caller's self time.

Spans are kept in flat arrays while the run lasts and saved when it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import orbit_nodes, residuals

LAYERS = ("algebra", "combing", "spectral", "markov", "equidist", "presets", "cli")
METHODS = (
    ("algebra", "GroupMatrix", "__matmul__"),
    ("markov", "LambdaPrime", "sample"),
    ("equidist", "TestFunction", "evaluate"),
)
PACKAGE = "spherecomb"


def _arguments(fn, args, kwargs) -> dict:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


def _orbit_nodes(a, result):
    graph = a["graph"]
    start = graph.initial if a.get("start") is None else a["start"]
    return {"orbit_nodes": orbit_nodes(graph, [start], a["n_max"])}


def _character_rows(a, result):
    return {"char_evals": sum(t.shape[0] for t in a["tables"])}


def _ball_elements(a, result):
    return {"cayley_elements": len(result[0])}


def _verified_paths(a, result):
    return {"verify_paths": sum(result.automaton_counts[1:])}


def _walk_steps(a, result):
    return {"walk_steps": a["length"]}


def _residual(a, result):
    r = residuals(np.asarray(result.matrix, dtype=float), result.lam, result.p, result.q)
    return {"residual_max": r}


# Work counted at a function's return, from its arguments and result.
OBSERVERS = {
    "equidist.orbit_tables": _orbit_nodes,
    "equidist.character_sums": _character_rows,
    "combing.cayley_ball": _ball_elements,
    "combing.verify_geodesic": _verified_paths,
    "markov.sample_path": _walk_steps,
    "markov.sample_vertex_walk": _walk_steps,
    "spectral.perron_data": _residual,
}


# The wrapped functions each layer-specific metric is made from.  A metric
# none of whose functions exists any more is left out.
SOURCES = {
    "presets.build_s": ("presets.preset",),
    "algebra.matmul_calls": ("algebra.__matmul__",),
    "algebra.word_act_per_s": ("algebra.word_act",),
    "combing.cayley_elements_per_s": ("combing.cayley_ball",),
    "combing.verify_paths_per_s": ("combing.verify_geodesic",),
    "spectral.classify_s": ("spectral.classify",),
    "spectral.perron_data_s": ("spectral.perron_data",),
    "spectral.residual_max": ("spectral.perron_data",),
    "markov.suffix_samples_per_s": ("markov.sample",),
    "markov.walk_steps_per_s": ("markov.sample_path", "markov.sample_vertex_walk"),
    "equidist.orbit_nodes_per_s": ("equidist.orbit_tables",),
    "equidist.char_evals_per_s": ("equidist.character_sums",),
    "equidist.evaluate_calls": ("equidist.evaluate",),
}


class Tracer:
    """Installs span-recording wrappers into the package and removes them."""

    def __init__(self):
        self.names: list[str] = []  # "layer.function" per function id
        self.errors: list[int] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.fid = array("q")
        self.job = array("q")
        self.stack = [-1]
        self.job_id = 0
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _wrapper(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        self.errors.append(0)
        observer = OBSERVERS.get(name)
        start, end, parent, fids, job = self.start, self.end, self.parent, self.fid, self.job
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            start.append(perf_counter())
            end.append(0.0)
            parent.append(stack[-1])
            fids.append(fid)
            job.append(self.job_id)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[fid] += 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observer is not None:
                self._observe(observer, fn, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, observer, fn, args, kwargs, result) -> None:
        try:
            found = observer(_arguments(fn, args, kwargs), result)
        except (KeyError, AttributeError, TypeError, IndexError):
            return  # the function changed shape; leave its metric unfed
        for key, value in found.items():
            if key == "residual_max":
                self.maxima[key] = max(self.maxima.get(key, 0.0), value)
            else:
                self.counts[key] += value

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for owner in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, obj in list(vars(owner).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                layer = home.rpartition(".")[2]
                if not home.startswith(PACKAGE + ".") or layer not in LAYERS:
                    continue
                if inspect.isgeneratorfunction(inspect.unwrap(obj)):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrapper(obj, f"{layer}.{obj.__name__}")
                self._set(owner, attr, wrappers[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            if cls is not None and method in vars(cls):
                self._set(cls, method, self._wrapper(vars(cls)[method], f"{layer}.{method}"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "fid": np.array(self.fid, dtype=np.int64),
            "job": np.array(self.job, dtype=np.int64),
        }

    def save(self, path: Path, job_names: list[str]) -> None:
        header = {"functions": self.names, "errors": self.errors, "jobs": job_names}
        np.savez(path, header=np.array(json.dumps(header)), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Self time, calls and errors per layer, plus the layer-specific rates."""
        sp = self.arrays()
        n_fn = len(self.names)
        dur = sp["end"] - sp["start"]
        child = np.zeros(len(dur))
        nested = sp["parent"] >= 0
        np.add.at(child, sp["parent"][nested], dur[nested])
        self_time = np.bincount(sp["fid"], weights=dur - child, minlength=n_fn)
        inclusive = np.bincount(sp["fid"], weights=dur, minlength=n_fn)
        calls = np.bincount(sp["fid"], minlength=n_fn)

        def per_fn(values, *names):
            return float(sum(values[i] for i, n in enumerate(self.names) if n in names))

        def ratio(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        def rate(amount, *names):
            return ratio(amount, per_fn(inclusive, *names))

        out: dict[str, float] = {}
        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.names) if n.partition(".")[0] == layer]
            if not ids:
                continue
            out[f"{layer}.self_s"] = float(sum(self_time[i] for i in ids))
            out[f"{layer}.calls"] = float(sum(calls[i] for i in ids))
            out[f"{layer}.errors"] = float(sum(self.errors[i] for i in ids))
        c = self.counts
        specific = {
            "presets.build_s": per_fn(inclusive, "presets.preset"),
            "algebra.matmul_calls": per_fn(calls, "algebra.__matmul__"),
            "algebra.word_act_per_s": rate(per_fn(calls, "algebra.word_act"), "algebra.word_act"),
            "combing.cayley_elements_per_s": rate(
                c["cayley_elements"], "combing.cayley_sphere_counts",
                "combing.build_cone_type_combing", "combing.verify_geodesic"),
            "combing.verify_paths_per_s": rate(c["verify_paths"], "combing.verify_geodesic"),
            "spectral.classify_s": per_fn(inclusive, "spectral.classify"),
            "spectral.perron_data_s": per_fn(inclusive, "spectral.perron_data"),
            "spectral.residual_max": self.maxima.get("residual_max", 0.0),
            "markov.suffix_samples_per_s": rate(per_fn(calls, "markov.sample"), "markov.sample"),
            "markov.walk_steps_per_s": rate(
                c["walk_steps"], "markov.sample_path", "markov.sample_vertex_walk"),
            "equidist.orbit_nodes_per_s": ratio(
                c["orbit_nodes"], per_fn(self_time, "equidist.orbit_tables")),
            "equidist.char_evals_per_s": ratio(
                c["char_evals"], per_fn(self_time, "equidist.character_sums")),
            "equidist.evaluate_calls": per_fn(calls, "equidist.evaluate"),
        }
        wrapped = set(self.names)
        out.update({name: value for name, value in specific.items()
                    if wrapped.intersection(SOURCES[name])})
        return out
