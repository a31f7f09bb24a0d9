"""Tests for the global-connectivity repair (Sec. III-D1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanningError
from repro.marching import repair_targets
from repro.marching.distributed_planner import _protocol_hops
from repro.network import UnitDiskGraph, adjacency_from_edges, bfs_hops
from repro.network.links import links_alive


def chain(n, spacing=1.0):
    return np.column_stack([np.arange(n) * spacing, np.zeros(n)])


class TestNoRepairNeeded:
    def test_targets_unchanged(self):
        p = chain(5)
        q = p + [100.0, 0.0]  # rigid shift keeps every link
        out, info = repair_targets(p, q, 1.5, boundary_anchors=[0, 4])
        assert np.allclose(out, q)
        assert info.escort_count == 0
        assert info.isolated_before == 0
        assert info.rounds == 1


class TestSingleIsolation:
    def test_isolated_robot_escorted(self):
        p = chain(5)
        q = p.copy()
        q[2] += [0.0, 50.0]  # robot 2's target tears it from everyone
        out, info = repair_targets(p, q, 1.5, boundary_anchors=[0, 4])
        assert 2 in info.escorted
        ref = info.references[2]
        assert ref in (1, 3)
        # Parallel escort: same displacement as the reference.
        assert np.allclose(out[2] - p[2], out[ref] - p[ref])

    def test_escorted_robot_connected_at_end(self):
        p = chain(5)
        q = p.copy()
        q[2] += [0.0, 50.0]
        out, _ = repair_targets(p, q, 1.5, boundary_anchors=[0, 4])
        graph = UnitDiskGraph(out, 1.5)
        assert graph.nodes_connected_to([0, 4]).all()


class TestSubgroupIsolation:
    def test_subgroup_escorted_together(self):
        p = chain(7)
        q = p.copy()
        # Robots 3-4 fly off together (mutually connected, but cut off).
        q[3] += [0.0, 50.0]
        q[4] += [0.0, 50.0]
        out, info = repair_targets(p, q, 1.5, boundary_anchors=[0, 6])
        assert {3, 4} <= set(info.escorted)
        # Both members copy the same reference displacement.
        refs = {info.references[3], info.references[4]}
        assert len(refs) == 1
        # After repair, nobody is isolated over the march.
        alive = links_alive(
            UnitDiskGraph(p, 1.5).edges, out, 1.5
        )
        adj = adjacency_from_edges(7, UnitDiskGraph(p, 1.5).edges[alive])
        hops = bfs_hops(adj, [0, 6])
        assert (hops >= 0).all()

    def test_reference_closest_to_boundary_preferred(self):
        # Line 0..6, anchors at 0 only: hops increase with index.  An
        # isolated robot 3 must choose reference 2 (hop 2) over 4 (hop 3).
        p = chain(7)
        q = p.copy()
        q[3] += [0.0, 50.0]
        out, info = repair_targets(p, q, 1.5, boundary_anchors=[0])
        assert info.references[3] == 2


class TestRepairContract:
    def test_count_mismatch(self):
        with pytest.raises(PlanningError):
            repair_targets(chain(3), chain(4), 1.5, [0])

    def test_no_anchors_rejected(self):
        p = chain(3)
        with pytest.raises(PlanningError):
            repair_targets(p, p, 1.5, [])

    def test_explicit_links_respected(self):
        p = chain(4)
        q = p.copy()
        q[3] += [0.0, 50.0]
        links = UnitDiskGraph(p, 1.5).edges
        out, info = repair_targets(p, q, 1.5, [0], links=links)
        assert 3 in info.escorted

    def test_whole_swarm_never_isolated_invariant(self, rng):
        """Random tears on a lattice: repair always restores boundary
        reachability at the endpoints (the invariant the planner relies
        on)."""
        rows, cols = 4, 5
        pts = []
        for r in range(rows):
            off = 0.0 if r % 2 == 0 else 0.5
            for c in range(cols):
                pts.append((c + off, r * np.sqrt(3) / 2))
        p = np.array(pts)
        rc = 1.1
        graph = UnitDiskGraph(p, rc)
        boundary = [i for i in range(len(p)) if graph.degree(i) < 6]
        for _ in range(5):
            q = p + [30.0, 0.0]
            tear = rng.choice(len(p), size=4, replace=False)
            q[tear] += rng.normal(0, 10, (4, 2))
            out, info = repair_targets(p, q, rc, boundary)
            alive = links_alive(graph.edges, out, rc) & links_alive(
                graph.edges, p, rc
            )
            adj = adjacency_from_edges(len(p), graph.edges[alive])
            hops = bfs_hops(adj, boundary)
            assert (hops >= 0).all()


class TestNestedSubgroupIsolation:
    """A subgroup whose only one-range neighbours are themselves isolated
    needs a later round: its escort can only start once the inner
    subgroup has been escorted back into the connected component."""

    def _nested_instance(self):
        p = chain(8)  # anchors -- 0 1 2 3 | A = {4, 5} | B = {6, 7}
        rc = 1.5
        shift = np.array([0.3, 0.0])
        q = p + shift  # the reached robots march rigidly
        q[4:6] += [0.0, 40.0]  # subgroup A tears off together...
        q[6:8] += [0.0, 80.0]  # ...and B, reachable only through A
        return p, q, rc

    def test_inner_then_outer_subgroup_escorted(self):
        p, q, rc = self._nested_instance()
        out, info = repair_targets(p, q, rc, boundary_anchors=[0])
        # Round 1 finds {4,5} and {6,7} isolated but can only escort A
        # (B's one-range neighbours 5 and 7 are both isolated); round 2
        # escorts B off the now-reached 5; round 3 verifies.
        assert info.rounds == 3
        assert set(info.escorted) == {4, 5, 6, 7}
        assert info.isolated_before == 4
        assert info.references[4] == info.references[5] == 3
        assert info.references[6] == info.references[7] == 5
        # Every escort copies its reference's displacement exactly.
        shift = q[3] - p[3]
        for r in (4, 5, 6, 7):
            assert np.allclose(out[r] - p[r], shift)

    def test_connectivity_holds_at_sampled_times(self):
        p, q, rc = self._nested_instance()
        out, _ = repair_targets(p, q, rc, boundary_anchors=[0])
        for t in np.linspace(0.0, 1.0, 9):
            pos = p + t * (out - p)
            graph = UnitDiskGraph(pos, rc)
            assert graph.nodes_connected_to([0]).all(), f"disconnected at t={t}"

    def test_deeper_nesting_converges(self):
        # Three chained subgroups: {4,5} <- {6,7} <- {8,9}.
        p = chain(10)
        rc = 1.5
        q = p.copy()
        q[4:6] += [0.0, 40.0]
        q[6:8] += [0.0, 80.0]
        q[8:10] += [0.0, 120.0]
        out, info = repair_targets(p, q, rc, boundary_anchors=[0])
        assert info.rounds == 4
        assert set(info.escorted) == {4, 5, 6, 7, 8, 9}
        for t in np.linspace(0.0, 1.0, 9):
            pos = p + t * (out - p)
            assert UnitDiskGraph(pos, rc).nodes_connected_to([0]).all()


class TestProtocolDetector:
    """The distributed planner runs this same loop with the boundary-flood
    subgroup protocol as its isolation detector."""

    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([10.0, 40.0, 120.0]),
        anchor_count=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_protocol_matches_bfs_bitwise(self, n, seed, spread, anchor_count):
        rng = np.random.default_rng(seed)
        # Grow a connected swarm: each robot lands within range of one
        # already placed.
        p = np.zeros((n, 2))
        for i in range(1, n):
            angle, radius = rng.uniform(0.0, 2 * np.pi), rng.uniform(20.0, 80.0)
            p[i] = p[rng.integers(i)] + radius * np.array([np.cos(angle), np.sin(angle)])
        assert UnitDiskGraph(p, 80.0).is_connected()
        q = p + rng.normal(0.0, spread, size=(n, 2))
        anchors = rng.choice(n, size=min(anchor_count, n), replace=False)

        def outcome(**kw):
            try:
                return repair_targets(p, q, 80.0, anchors, **kw)
            except PlanningError as exc:
                return str(exc)

        central = outcome()
        protocol = outcome(_hops=_protocol_hops)
        if isinstance(central, str):
            assert protocol == central
            return
        assert protocol[0].tobytes() == central[0].tobytes()
        assert protocol[1] == central[1]
