"""Token-level fuzzing of the file parsers: parse, or name the file.

Each case starts from a small valid file and applies a few random edits
at the level of lines and whitespace-separated tokens: delete, duplicate
or truncate a line, insert a line of random tokens, replace one token.
``read_metis``, ``read_xyz`` and ``read_pdb`` must either return a value
or raise ``ValueError`` whose message names the path — never an
``IndexError``, a numpy shape error or any other exception type.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphkit import Graph
from repro.graphkit.io import read_metis, write_metis
from repro.md import Topology, Trajectory, read_pdb, read_xyz, write_pdb, write_xyz

#: Tokens that mean something to one of the three formats.
_WORDS = [
    "ATOM", "MODEL", "ENDMDL", "HEADER", "END", "ALA", "GLY", "XYZ", "C",
    "N", "seq=GA", "seq=", "ss=CC", "ss=H", "name=p", "%", "0", "1", "-1",
    "2", "3", "11", "001", "1e999", "nan", "inf", "-0.0", "1_0", "1.5",
    "", "\t",
]
_TOKEN = st.one_of(
    st.sampled_from(_WORDS),
    st.integers(-3, 40).map(str),
    st.text(st.sampled_from("0123456789-+.eE_xATOMß١ "), max_size=8),
)
_INDEX = st.integers(0, 30)
_EDIT = st.one_of(
    st.tuples(st.just("delete"), _INDEX, st.integers(1, 4)),
    st.tuples(st.just("duplicate"), _INDEX),
    st.tuples(st.just("truncate"), _INDEX, st.integers(0, 60)),
    st.tuples(st.just("insert"), _INDEX, st.lists(_TOKEN, max_size=6)),
    st.tuples(st.just("token"), _INDEX, _INDEX, _TOKEN),
)


def _mutate(lines: list[str], edits) -> list[str]:
    lines = list(lines)
    for kind, at, *args in edits:
        i = at % (len(lines) + 1)
        if kind == "insert":
            lines.insert(i, " ".join(args[0]))
            continue
        if not lines:
            continue
        i %= len(lines)
        if kind == "delete":
            del lines[i: i + args[0]]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines[i] = lines[i][: args[0]]
        else:  # replace one token, joined back by single spaces
            tokens = lines[i].split() or [""]
            tokens[args[0] % len(tokens)] = args[1]
            lines[i] = " ".join(tokens)
    return lines


def _valid_lines(tmp: Path, write, obj, name: str) -> list[str]:
    path = tmp / name
    write(obj, path)
    return path.read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Valid small files of each format, as lines."""
    tmp = tmp_path_factory.mktemp("seeds")
    topo = Topology.from_sequence("GA", name="p", secondary="CH")
    rng = np.random.default_rng(0)
    traj = Trajectory(topo, rng.normal(scale=5.0, size=(2, topo.n_atoms, 3)))
    unweighted = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    weighted = Graph.from_weighted_edges(4, [(0, 1, 2.0), (1, 2, 0.5)])
    return {
        "metis": _valid_lines(tmp, write_metis, unweighted, "u.graph"),
        "metis-weighted": _valid_lines(tmp, write_metis, weighted, "w.graph"),
        "xyz": _valid_lines(tmp, write_xyz, traj, "t.xyz"),
        "pdb": _valid_lines(tmp, write_pdb, traj, "t.pdb"),
    }


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _parses_or_names_path(read, path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        read(path)
    except ValueError as exc:
        assert str(path) in str(exc), f"{type(exc).__name__}: {exc}"


_FUZZ = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize(
    "seed, read",
    [
        ("metis", read_metis),
        ("metis-weighted", read_metis),
        ("xyz", read_xyz),
        ("pdb", read_pdb),
    ],
)
@_FUZZ
@given(edits=st.lists(_EDIT, max_size=5))
def test_parser_fuzz(seeds, fuzz_dir, seed, read, edits):
    lines = _mutate(seeds[seed], edits)
    _parses_or_names_path(read, fuzz_dir / f"case-{seed}", lines)
