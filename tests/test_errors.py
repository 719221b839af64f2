"""Exception hierarchy: one base class catches everything the library raises."""

import pytest

from repro.errors import (
    AnalysisError,
    ConfigError,
    IRError,
    LayoutError,
    ReproError,
    SimulationError,
    TransformError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ConfigError, IRError, LayoutError, TransformError, AnalysisError,
         SimulationError],
    )
    def test_all_derive_from_base(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_base_not_a_builtin_catchall(self):
        # Genuine bugs (TypeError etc.) must NOT be swallowed by except
        # ReproError blocks.
        assert not issubclass(TypeError, ReproError)

    def test_library_raises_its_own_types(self):
        """Spot-check that representative entry points raise the advertised
        subclass, so `except ReproError` is a usable API boundary."""
        import numpy as np

        from repro import DataLayout, ProgramBuilder
        from repro.cache.assoc_vec import miss_mask_assoc_vec
        from repro.transforms.tiling import strip_mine

        with pytest.raises(SimulationError):
            miss_mask_assoc_vec(np.array([0]), 1000, 32, 1)

        b = ProgramBuilder("p")
        A = b.array("A", (4,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 4)], [b.use(reads=[A[i]])])
        prog = b.build()
        with pytest.raises(LayoutError):
            DataLayout.sequential(prog).base("nope")
        with pytest.raises(TransformError):
            strip_mine(prog.nests[0], "zz", 4)
        with pytest.raises(IRError):
            b.loop(i + 1, 1, 4)
