"""Ready-made generator systems with verified geodesic combings.

Each preset bundles a matrix generator system, a combing of its group, and a
default irrational basepoint on the torus.  Two of them average to Haar
measure (the free group on the Sanov generators, combed two ways); two are
controls where equidistribution fails and the averages stay visibly large.

Every automaton is computed from its generators.  ``free2_sanov``,
``z_parabolic`` and ``dinf_involutions`` are the cone-type automata that
:func:`~spherecomb.combing.build_cone_type_combing` computes from their
matrices at radius ``CONE_RADIUS`` and lookahead ``CONE_LOOKAHEAD``;
``free2_symbolic`` is the no-backtracking automaton of
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
    """A named generator system with a combing and a default basepoint."""

    name: str
    description: str
    system: GeneratorSystem
    graph: GraphStructure
    basepoint: TorusPoint
    equidistributes: bool


def _irrational_point(dim: int) -> TorusPoint:
    """Fractional parts of sqrt(p) for the first dim primes, in fixed point."""
    primes = []
    n = 2
    while len(primes) < dim:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return TorusPoint(tuple(sqrt_fix64(p) for p in primes))


def _sanov_system() -> GeneratorSystem:
    return GeneratorSystem.from_pairs(
        [
            ("a", "A", ((1, 2), (0, 1))),
            ("b", "B", ((1, 0), (2, 1))),
        ]
    )


def _free2_sanov() -> Preset:
    system = _sanov_system()
    graph = build_cone_type_combing(system, CONE_RADIUS, CONE_LOOKAHEAD)
    return Preset(
        name="free2_sanov",
        description=(
            "Rank-2 free group on the unipotent matrices [[1,2],[0,1]] and "
            "[[1,0],[2,1]], combed by its cone-type automaton (5 states)."
        ),
        system=system,
        graph=graph,
        basepoint=_irrational_point(2),
        equidistributes=True,
    )


def _free2_symbolic() -> Preset:
    system = _sanov_system()
    graph = build_free_group_combing(system)
    return Preset(
        name="free2_symbolic",
        description=(
            "Same free group, combed directly from the reduced-word structure "
            "instead of via cone types."
        ),
        system=system,
        graph=graph,
        basepoint=_irrational_point(2),
        equidistributes=True,
    )


def _z_parabolic() -> Preset:
    system = GeneratorSystem.from_pairs([("t", "T", ((1, 1), (0, 1)))])
    graph = build_cone_type_combing(system, CONE_RADIUS, CONE_LOOKAHEAD)
    # basepoint with zero second coordinate: fixed by the whole group, so
    # spherical averages of chi_(1,0) stay at modulus one
    return Preset(
        name="z_parabolic",
        description=(
            "Infinite cyclic group generated by the shear [[1,1],[0,1]]; "
            "a negative control where orbit averages do not equidistribute."
        ),
        system=system,
        graph=graph,
        basepoint=TorusPoint((sqrt_fix64(2), 0)),
        equidistributes=False,
    )


def _dinf_involutions() -> Preset:
    system = GeneratorSystem.from_pairs(
        [
            ("a", "a", ((-1, 0, 0), (0, 1, 0), (0, 0, -1))),
            ("b", "b", ((-1, 1, 0), (0, 1, 0), (0, 0, -1))),
        ]
    )
    graph = build_cone_type_combing(system, CONE_RADIUS, CONE_LOOKAHEAD)
    return Preset(
        name="dinf_involutions",
        description=(
            "Infinite dihedral group on two determinant-one involutions in "
            "dimension three; its transition matrix has period two."
        ),
        system=system,
        graph=graph,
        basepoint=_irrational_point(3),
        equidistributes=False,
    )


_BUILDERS = {
    "free2_sanov": _free2_sanov,
    "free2_symbolic": _free2_symbolic,
    "z_parabolic": _z_parabolic,
    "dinf_involutions": _dinf_involutions,
}


def preset_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


@lru_cache(maxsize=None)
def _shipped(name: str) -> Preset:
    try:
        return _BUILDERS[name]()
    except KeyError:
        known = ", ".join(preset_names())
        raise SpherecombError(f"unknown preset {name!r}; known presets: {known}") from None


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
        return Preset(
            name=name,
            description=f"user automaton loaded from {path}",
            system=graph.system,
            graph=graph,
            basepoint=_irrational_point(graph.system.dim),
            equidistributes=False,
        )
    return _shipped(name)


# Empties the shipped-preset cache, e.g. so that a caller can time a fresh build.
preset.cache_clear = _shipped.cache_clear
