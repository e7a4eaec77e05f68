"""Ready-made generator systems with verified geodesic combings.

Each preset bundles a combing of a matrix group (its graph carries the
generator system) and a default irrational basepoint on the torus.  Two of
them average to Haar measure (the free group on the Sanov generators, combed
two ways); two are controls where equidistribution fails and the averages
stay visibly large.

All four are built from one table, ``_RECIPES``: per preset the generator
pairs, the combing construction, the basepoint and whether it
equidistributes.  Every automaton is computed from its generators:
:func:`~spherecomb.combing.build_cone_type_combing` at radius ``CONE_RADIUS``
and lookahead ``CONE_LOOKAHEAD``, or the no-backtracking automaton of
:func:`~spherecomb.combing.build_free_group_combing`.  The two free-group
constructions give equal graphs, edge for edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import GeneratorSystem, TorusPoint, sqrt_fix64
from .combing import (
    GraphStructure,
    build_cone_type_combing,
    build_free_group_combing,
    load_automaton,
)
from .errors import SpherecombError

# radius and lookahead of every cone-type preset
CONE_RADIUS = 8
CONE_LOOKAHEAD = 2


@dataclass(frozen=True)
class Preset:
    """A named combing with a default basepoint; ``system`` is the graph's."""

    name: str
    graph: GraphStructure
    basepoint: TorusPoint
    equidistributes: bool

    @property
    def system(self) -> GeneratorSystem:
        return self.graph.system


def _irrational_point(dim: int) -> TorusPoint:
    """Fractional parts of sqrt(p) for the first dim primes, in fixed point."""
    primes = []
    n = 2
    while len(primes) < dim:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return TorusPoint(tuple(sqrt_fix64(p) for p in primes))


def _cone_types(system: GeneratorSystem) -> GraphStructure:
    return build_cone_type_combing(system, CONE_RADIUS, CONE_LOOKAHEAD)


_SANOV = (("a", "A", ((1, 2), (0, 1))), ("b", "B", ((1, 0), (2, 1))))

# name: (generator pairs, combing construction, basepoint or None for the
# irrational point of the dimension, equidistributes)
_RECIPES = {
    # rank-2 free group on the unipotent Sanov matrices, cone types (5 states)
    "free2_sanov": (_SANOV, _cone_types, None, True),
    # the same group combed from its reduced words instead of cone types
    "free2_symbolic": (_SANOV, build_free_group_combing, None, True),
    # infinite cyclic group of a shear, a control that does not equidistribute;
    # the zero second coordinate is fixed by the whole group, so spherical
    # averages of chi_(1,0) stay at modulus one
    "z_parabolic": (
        (("t", "T", ((1, 1), (0, 1))),),
        _cone_types,
        TorusPoint((sqrt_fix64(2), 0)),
        False,
    ),
    # infinite dihedral group on two determinant-one involutions in dimension
    # three, a control whose transition matrix has period two
    "dinf_involutions": (
        (("a", "a", ((-1, 0, 0), (0, 1, 0), (0, 0, -1))), ("b", "b", ((-1, 1, 0), (0, 1, 0), (0, 0, -1)))),
        _cone_types,
        None,
        False,
    ),
}


def preset_names() -> tuple[str, ...]:
    return tuple(_RECIPES)


@lru_cache(maxsize=None)
def _shipped(name: str) -> Preset:
    try:
        pairs, combing, basepoint, equidistributes = _RECIPES[name]
    except KeyError:
        known = ", ".join(preset_names())
        raise SpherecombError(f"unknown preset {name!r}; known presets: {known}") from None
    graph = combing(GeneratorSystem.from_pairs(pairs))
    if basepoint is None:
        basepoint = _irrational_point(graph.system.dim)
    return Preset(name, graph, basepoint, equidistributes)


def preset(name: str) -> Preset:
    """Look up a preset by name; ``user:<path>`` loads a saved automaton file.

    Shipped presets are built once per process; a ``user:`` file is read on
    every call, so a rewritten file is never served stale.
    """
    if not isinstance(name, str):
        raise SpherecombError(f"preset must be a name or user:<path>, not {name!r}")
    if name.startswith("user:"):
        path = name[len("user:") :]
        if not path:
            raise SpherecombError("user preset needs a path: user:<file.json>")
        graph = load_automaton(path)
        return Preset(name, graph, _irrational_point(graph.system.dim), False)
    return _shipped(name)


# Empties the shipped-preset cache, e.g. so that a caller can time a fresh build.
preset.cache_clear = _shipped.cache_clear
