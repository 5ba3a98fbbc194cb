"""Equivalence of the mask-based leaf verifiers with the Graph-based ones.

The search's ``_verify_leaf`` takes a bitmask fast path when the engine
exposes adjacency masks (the bitmask kernel) and the original
Graph path otherwise (the reference kernel).  Node-for-node kernel identity
therefore *depends* on the two implementations being boolean-equivalent:
``is_chordal_masks`` must agree with ``is_chordal``, and
``extend_orientation_masks`` must succeed exactly when
``extend_transitive_orientation`` does.  Both facts are graph properties,
not engine properties — these tests pin them directly on random graphs so a
bug fails here with a tiny counterexample instead of as an opaque node-count
divergence in the differential suite.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.chordal import is_chordal, is_chordal_masks, lex_bfs_masks
from repro.graphs.comparability import (
    extend_orientation_masks,
    extend_transitive_orientation,
    is_transitive,
)
from repro.graphs.graph import Graph


def _random_graph(rng, n, p):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def _masks_of(g):
    masks = [0] * g.n
    for u in range(g.n):
        for v in g.adj[u]:
            masks[u] |= 1 << v
    return masks


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=0, max_value=12),
    p=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=200, deadline=None)
def test_is_chordal_masks_matches_graph_version(seed, n, p):
    g = _random_graph(random.Random(seed), n, p)
    assert is_chordal_masks(_masks_of(g), n) == is_chordal(g)


def test_lex_bfs_masks_is_a_permutation():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 10)
        g = _random_graph(rng, n, 0.4)
        order = lex_bfs_masks(_masks_of(g), n)
        assert sorted(order) == list(range(n))


class TestOrientationExtension:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=9),
        p=st.floats(min_value=0.2, max_value=0.9),
    )
    @settings(max_examples=150, deadline=None)
    def test_existence_agrees_with_graph_version(self, seed, n, p):
        rng = random.Random(seed)
        g = _random_graph(rng, n, p)
        edges = list(g.edges())
        # Force a random subset of edges in random directions.
        forced = []
        for u, v in edges:
            if rng.random() < 0.3:
                forced.append((u, v) if rng.random() < 0.5 else (v, u))
        slow = extend_transitive_orientation(g, forced)
        fast = extend_orientation_masks(n, _masks_of(g), forced)
        assert (slow is None) == (fast is None)
        if fast is not None:
            # The fast arcs are a genuine transitive orientation of the
            # same edge set, containing every forced arc.
            assert is_transitive(n, fast)
            arc_set = set(fast)
            assert set(forced) <= arc_set
            covered = {(min(a, b), max(a, b)) for a, b in fast}
            assert covered == set(edges)
            assert len(fast) == len(edges)

    def test_forced_non_edge_raises(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="not an edge"):
            extend_orientation_masks(3, _masks_of(g), [(0, 2)])

    def test_c5_has_no_orientation_either_way(self):
        c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert extend_transitive_orientation(c5) is None
        assert extend_orientation_masks(5, _masks_of(c5)) is None

    def test_deterministic(self):
        rng = random.Random(11)
        for _ in range(20):
            g = _random_graph(rng, 8, 0.5)
            masks = _masks_of(g)
            first = extend_orientation_masks(8, masks)
            second = extend_orientation_masks(8, masks)
            assert first == second


class TestLeafPathSelection:
    """The search takes the mask path iff the engine exposes masks."""

    def test_mask_kernels_expose_adjacency_masks(self):
        from repro.core import make_model
        from repro.core.boxes import make_instance

        inst = make_instance(
            [(2, 2, 2), (2, 2, 2)], (4, 4, 4), precedence_arcs=[(0, 1)]
        )
        model = make_model(inst, kernel="bitmask")
        assert hasattr(model, "component_masks")
        assert hasattr(model, "comparability_masks")
        reference = make_model(inst, kernel="reference")
        assert not hasattr(reference, "component_masks")

    def test_masks_mirror_graphs_mid_search(self):
        from repro.core import Conflict, make_model
        from repro.instances.random_instances import random_instance

        rng = random.Random(13)
        for _ in range(5):
            inst = random_instance(
                rng, container=(5, 5, 5), num_boxes=6, max_width=3,
                precedence_density=0.3,
            )
            model = make_model(inst, kernel="bitmask")
            try:
                model.seed()
            except Conflict:
                continue
            for axis in range(model.d):
                assert _masks_of(model.component_graph(axis)) == list(
                    model.component_masks(axis)
                )
                assert _masks_of(model.comparability_graph(axis)) == list(
                    model.comparability_masks(axis)
                )
