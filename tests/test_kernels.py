"""Kernel registry and engine-protocol contract tests.

The registry (:mod:`repro.core.kernels`) is the single surface every
kernel consumer goes through — ``SolverOptions`` validation, the CLI's
``--kernel`` choices, ``repro.solve(kernel=...)``, and the search itself
all resolve names here.  These tests pin the registry semantics
(ordering, aliases, replacement, the auto-listing error), the
:class:`~repro.core.kernels.EngineProtocol` contract every built-in
satisfies, and the bitmask kernel's incrementally tracked per-vertex
masks (every propagation rule reads them, so a single flipped bit
silently corrupts the search).
"""

import random

import pytest

from repro.core import (
    COMPARABILITY,
    COMPONENT,
    BitmaskEdgeStateModel,
    Conflict,
    EdgeStateModel,
    EngineProtocol,
    SolverOptions,
    UnknownKernelError,
    available_kernels,
    get_kernel,
    make_model,
    register_kernel,
    solve_opp,
)
from repro.core import kernels as kernels_mod
from repro.core.boxes import make_instance


def _tiny_instance():
    return make_instance(
        [(2, 2, 2), (2, 2, 2), (2, 2, 2)], (4, 4, 4),
        precedence_arcs=[(0, 1)],
    )


@pytest.fixture
def scratch_registry():
    """Let a test register throwaway kernels without leaking them."""
    before = set(kernels_mod._registry)
    yield
    for name in set(kernels_mod._registry) - before:
        del kernels_mod._registry[name]


class TestRegistry:
    def test_builtins_registered_in_presentation_order(self):
        names = available_kernels()
        assert names[:2] == ("bitmask", "reference")

    def test_vector_is_an_alias_of_bitmask(self):
        assert "vector" not in available_kernels()
        assert kernels_mod.resolve("vector") == "bitmask"
        assert get_kernel("vector") is get_kernel("bitmask")
        assert SolverOptions(kernel="vector").kernel == "bitmask"
        with pytest.raises(UnknownKernelError):
            kernels_mod.resolve("warp")

    def test_unknown_kernel_error_lists_alternatives(self):
        with pytest.raises(UnknownKernelError) as excinfo:
            get_kernel("warp")
        assert excinfo.value.kernel == "warp"
        for name in available_kernels():
            assert name in str(excinfo.value)
        # It is a ValueError, so pre-registry callers that caught
        # ValueError keep working.
        assert isinstance(excinfo.value, ValueError)

    def test_solver_options_validates_through_registry(self):
        with pytest.raises(UnknownKernelError):
            SolverOptions(kernel="warp")

    def test_duplicate_registration_refused_unless_replace(
        self, scratch_registry
    ):
        def factory(instance, options=None):
            return BitmaskEdgeStateModel(instance, options)

        def factory2(instance, options=None):
            return BitmaskEdgeStateModel(instance, options)

        register_kernel("scratch", factory)
        with pytest.raises(ValueError, match="already registered"):
            register_kernel("scratch", factory)
        register_kernel("scratch", factory2, replace=True)
        assert get_kernel("scratch") is factory2

    def test_third_party_kernel_flows_end_to_end(self, scratch_registry):
        """A registered kernel passes options validation and solves."""

        class ThirdPartyModel(BitmaskEdgeStateModel):
            kernel_name = "third-party"

        register_kernel(
            "third-party",
            lambda instance, options=None: ThirdPartyModel(instance, options),
        )
        options = SolverOptions(
            kernel="third-party", use_bounds=False, use_heuristics=False
        )
        result = solve_opp(_tiny_instance(), options=options)
        baseline = solve_opp(
            _tiny_instance(),
            options=SolverOptions(use_bounds=False, use_heuristics=False),
        )
        assert result.status == baseline.status
        assert result.stats.nodes == baseline.stats.nodes

    def test_legacy_kernels_tuple_reflects_registry(self):
        import repro.core

        assert repro.core.KERNELS == available_kernels()


class TestEngineProtocol:
    # "vector" is an alias: it must build the engine it names.
    @pytest.mark.parametrize("name", ["bitmask", "reference", "vector"])
    def test_builtin_engines_satisfy_protocol(self, name):
        model = make_model(_tiny_instance(), kernel=name)
        assert isinstance(model, EngineProtocol)
        assert model.kernel_name == kernels_mod.resolve(name)
        for attr in ("state", "orient", "stats", "options"):
            assert hasattr(model, attr)
        for method in (
            "seed", "mark", "rollback", "assign_state", "assign_arc",
            "propagate", "component_graph", "comparability_graph",
            "oriented_arcs", "undecided", "is_complete",
        ):
            assert callable(getattr(model, method))

    def test_reference_is_virtual_subclass(self):
        assert isinstance(
            EdgeStateModel(_tiny_instance()), EngineProtocol
        )

    def test_engines_agree_after_seed(self):
        models = {
            name: make_model(_tiny_instance(), kernel=name)
            for name in available_kernels()
        }
        for model in models.values():
            model.seed()
        reference = models["reference"]
        for name, model in models.items():
            assert model.is_complete() == reference.is_complete()
            assert sorted(model.undecided()) == sorted(
                reference.undecided()
            ), f"{name} seeds a different frontier"


class TestPackedStateStability:
    """The bitmask kernel's packed state — per-vertex component and
    comparability masks — is tracked incrementally across assignments and
    rollbacks; it must always equal the masks rebuilt from the state
    arrays."""

    @staticmethod
    def _packed(model):
        return [
            (model.component_masks(axis), model.comparability_masks(axis))
            for axis in range(model.d)
        ]

    @staticmethod
    def _rebuilt(model):
        packed = []
        for axis in range(model.d):
            masks = {COMPONENT: [0] * model.n, COMPARABILITY: [0] * model.n}
            for u in range(model.n):
                for v in range(model.n):
                    st = model.state[axis][u][v]
                    if st in masks:
                        masks[st][u] |= 1 << v
            packed.append((masks[COMPONENT], masks[COMPARABILITY]))
        return packed

    def test_live_engine_state_matches_codec(self):
        from repro.instances.random_instances import random_instance

        rng = random.Random(31)
        moves = 0
        for _ in range(5):
            inst = random_instance(
                rng, container=(6, 6, 6), num_boxes=6, max_width=3,
                precedence_density=0.3,
            )
            model = BitmaskEdgeStateModel(inst)
            try:
                model.seed()
            except Conflict:
                continue  # root-infeasible: nothing to assign
            assert self._packed(model) == self._rebuilt(model)
            marks = []
            for _ in range(12):
                open_pairs = list(model.undecided())
                if not open_pairs:
                    break
                axis, u, v = rng.choice(open_pairs)
                marks.append(model.mark())
                try:
                    model.assign_state(
                        axis, u, v, rng.choice((COMPONENT, COMPARABILITY))
                    )
                except Conflict:
                    model.rollback(marks.pop())
                moves += 1
                assert self._packed(model) == self._rebuilt(model)
            while marks:
                model.rollback(marks.pop())
                assert self._packed(model) == self._rebuilt(model)
        assert moves > 0, "every instance was root-infeasible — dead test"
