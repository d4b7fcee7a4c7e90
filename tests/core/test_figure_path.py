"""Pins of the pipeline's figure-building path on A3D.

A fixed frame/cut-off/measure sequence is replayed through
``UpdatePipeline``. Each event maps scores to colours once, a cut-off
switch builds no node trace for the protein plot, and the client cost
model's inputs (``client_ms`` and the merged ``UpdateStats``) equal the
values recorded before the path was vectorized.
"""

from dataclasses import astuple

import numpy as np
import pytest

from repro.core import UpdatePipeline
from repro.core import pipeline as pipeline_module
from repro.rin import DynamicRIN
from repro.vizbridge import bridge as bridge_module

EVENTS = [
    {"frame": 3},
    {"cutoff": 7.0},
    {"measure": "Betweenness Centrality"},
    {"frame": 9},
    {"cutoff": 5.0},
    {"measure": "PLM Community Detection"},
    {"cutoff": 6.5},
    {"frame": 4, "cutoff": 5.5},
    {"measure": "Degree Centrality"},
    {"frame": 0},
]

#: (client_ms, astuple(collected_stats())) after full_render, then after
#: each event of EVENTS, recorded with the per-node/per-edge loop path.
#: Stats fields: nodes_restyled, nodes_moved, edges_moved,
#: trace_rebuilds, elements_rebuilt.
RECORDED = [
    (132.72, (0, 0, 0, 4, 1184)),
    (131.44, (0, 0, 0, 4, 1168)),
    (113.28, (73, 0, 644, 2, 717)),
    (35.2, (146, 0, 0, 0, 0)),
    (151.28, (0, 0, 0, 4, 1416)),
    (86.99000000000001, (73, 0, 405, 2, 478)),
    (35.2, (146, 0, 0, 0, 0)),
    (105.80000000000001, (73, 0, 576, 2, 649)),
    (122.16, (0, 0, 0, 4, 1052)),
    (35.2, (146, 0, 0, 0, 0)),
    (121.36, (0, 0, 0, 4, 1042)),
]


@pytest.fixture
def pipe(a3d_traj):
    return UpdatePipeline(DynamicRIN(a3d_traj, frame=0, cutoff=6.0))


def _replay(pipe):
    """Yield (event, timing) for full_render and then every event."""
    yield None, pipe.full_render()
    for event in EVENTS:
        yield event, pipe.apply_event(**event)


def test_client_cost_inputs_match_recorded(pipe):
    seen = [
        (timing.client_ms, astuple(pipe.client.collected_stats()))
        for _, timing in _replay(pipe)
    ]
    assert seen == RECORDED


def test_one_colour_mapping_per_event(pipe, monkeypatch):
    calls = []
    for module in (pipeline_module, bridge_module):
        for name in ("scores_to_colors", "labels_to_colors"):
            original = getattr(module, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    for event, _ in _replay(pipe):
        assert len(calls) == 1, event
        calls.clear()


def test_cutoff_switch_builds_no_protein_node_trace(pipe, monkeypatch):
    built = []
    original = pipeline_module.graph_traces

    def recorded(g, coords, **kwargs):
        built.append(np.array(coords))
        return original(g, coords, **kwargs)

    monkeypatch.setattr(pipeline_module, "graph_traces", recorded)
    protein_nodes = pipe.protein_figure.trace(0)
    protein_edges = pipe.protein_figure.trace(1)
    pipe.switch_cutoff(7.0)
    # One trace pair is built, for the Maxent-Stress plot only.
    assert len(built) == 1
    assert np.array_equal(built[0], pipe.maxent_coordinates)
    # The protein plot keeps its node trace and moves its edge lines.
    assert pipe.protein_figure.trace(0) is protein_nodes
    assert pipe.protein_figure.trace(1) is protein_edges
    assert protein_edges.n_elements() == pipe.rin.n_edges
    # A frame switch rebuilds both plots.
    built.clear()
    pipe.switch_frame(2)
    assert len(built) == 2
