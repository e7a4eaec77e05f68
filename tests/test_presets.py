"""Preset roster: structure, basepoints, flags, user-supplied automata."""

import hashlib

import pytest

from spherecomb import (
    perron_data,
    preset,
    preset_names,
    save_automaton,
    sphere_counts,
    sqrt_fix64,
    transition_matrix,
    verify_geodesic,
)
from spherecomb.errors import SpherecombError


def test_roster():
    assert preset_names() == (
        "free2_sanov",
        "free2_symbolic",
        "z_parabolic",
        "dinf_involutions",
    )


def test_presets_are_cached():
    assert preset("free2_sanov") is preset("free2_sanov")


def test_all_presets_are_geodesic_combings():
    for name in preset_names():
        ps = preset(name)
        rep = verify_geodesic(ps.graph, 5)
        assert rep.passed, (name, rep.witness)
        assert ps.basepoint.dim == ps.system.dim


@pytest.mark.parametrize(
    "name, digest",
    [
        ("free2_sanov", "6aee7d1026dbfff3287472101ea7a6abb77be316d318cbddf5853aa97c062e28"),
        ("free2_symbolic", "6aee7d1026dbfff3287472101ea7a6abb77be316d318cbddf5853aa97c062e28"),
        ("z_parabolic", "e88b9f950ed9ef8f1b04f6ccf44677ef252c00b5f4a8f3539d8a4b713fd293aa"),
        ("dinf_involutions", "f987892503b6786072d257c1ebafe9039ba09fe0217b3e32c491b2150cb529bd"),
    ],
)
def test_preset_edges_match_pinned_digests(name, digest):
    # sha256 of repr(graph.edges), recorded when z_parabolic and
    # dinf_involutions still listed their edges by hand
    graph = preset(name).graph
    assert (graph.n_vertices, graph.initial) == ((5, 0) if name.startswith("free2") else (3, 0))
    assert hashlib.sha256(repr(graph.edges).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "name, digest",
    [
        ("free2_sanov", "7f2a0c3a60fcc96ea24aee52bf10f6800395b18e2d58a613bf615eb296b11750"),
        ("free2_symbolic", "d24465bdc85e5545f1016bbc5679335da894d87aac1174774e93c88531d5d9d2"),
        ("z_parabolic", "9ee454d81385197540027afd6a0cf0c8884d21fb42f0b8cc8fc3a8f88a4a792f"),
        ("dinf_involutions", "0bf5bf4e82b1f78457326ac149334c1dd58c169b715a538a741f66046b05ce96"),
    ],
)
def test_presets_match_pinned_digests(name, digest):
    # sha256 of the repr of every part of the preset, recorded when each
    # preset had its own builder function; the parts, not repr(ps), so that
    # a field's removal does not move the digest
    ps = preset(name)
    parts = (ps.name, ps.system, ps.graph, ps.basepoint, ps.equidistributes)
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == digest
    assert ps.system is ps.graph.system


def test_free2_presets_agree():
    a = preset("free2_sanov")
    b = preset("free2_symbolic")
    assert sphere_counts(a.graph, 8) == sphere_counts(b.graph, 8)
    da = perron_data(transition_matrix(a.graph))
    db = perron_data(transition_matrix(b.graph))
    assert abs(da.lam - db.lam) <= 1e-12
    assert a.equidistributes and b.equidistributes


def test_default_basepoints_pinned():
    assert preset("free2_sanov").basepoint.coords == (sqrt_fix64(2), sqrt_fix64(3))
    assert preset("z_parabolic").basepoint.coords == (sqrt_fix64(2), 0)
    assert preset("dinf_involutions").basepoint.coords == (
        sqrt_fix64(2),
        sqrt_fix64(3),
        sqrt_fix64(5),
    )


def test_controls_flagged():
    assert not preset("z_parabolic").equidistributes
    assert not preset("dinf_involutions").equidistributes


def test_dinf_structure():
    ps = preset("dinf_involutions")
    assert ps.system.dim == 3
    for label in ps.system.labels:
        assert ps.system.inverse_of(label) == label
    data = perron_data(transition_matrix(ps.graph))
    assert data.p_star == 2
    assert sphere_counts(ps.graph, 6) == (1, 2, 2, 2, 2, 2, 2)


def test_user_preset_round_trip(tmp_path):
    path = tmp_path / "saved.json"
    save_automaton(preset("free2_sanov").graph, path)
    ps = preset(f"user:{path}")
    assert ps.graph.n_vertices == 5
    assert sphere_counts(ps.graph, 5) == (1, 4, 12, 36, 108, 324)
    assert ps.system is ps.graph.system
    assert ps.name == f"user:{path}"
    assert ps.basepoint.coords == (sqrt_fix64(2), sqrt_fix64(3))
    assert not ps.equidistributes


def test_user_preset_rereads_rewritten_file(tmp_path):
    path = tmp_path / "saved.json"
    save_automaton(preset("free2_sanov").graph, path)
    assert preset(f"user:{path}").system.dim == 2
    save_automaton(preset("dinf_involutions").graph, path)
    ps = preset(f"user:{path}")
    assert ps.system.dim == 3
    assert sphere_counts(ps.graph, 4) == (1, 2, 2, 2, 2)
    assert ps.basepoint.coords == (sqrt_fix64(2), sqrt_fix64(3), sqrt_fix64(5))
    assert not ps.equidistributes


def test_user_preset_needs_path():
    with pytest.raises(SpherecombError):
        preset("user:")


def test_unknown_preset_lists_names():
    with pytest.raises(SpherecombError) as exc:
        preset("wat")
    assert "free2_sanov" in str(exc.value)


def test_user_preset_without_a_path_says_so():
    with pytest.raises(SpherecombError, match="^user preset needs a path: user:<file.json>$"):
        preset("user:")
