"""Tests for the simulation-core backend registry and its shims.

Covers the :mod:`repro.simt.backend` front door (registry contents,
lookup errors, exactness queries, third-party registration) and the
deprecated ``reference_core`` boolean shims on :class:`GPUConfig`,
:class:`Session`, and :class:`ParallelExecutor` — the API-surface half
of the golden-equivalence guarantees pinned in
``test_fastpath_equivalence.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import Experiment, Session
from repro.gpu import GPU, get_config
from repro.gpu.config import GPUConfig
from repro.simt.backend import (
    CORE_BACKENDS,
    CoreBackend,
    available_core_backends,
    core_backend_is_exact,
    get_core_backend,
    register_core_backend,
)
from repro.utils.errors import ConfigurationError, ExperimentError
from repro.workloads import create_workload
from tests.conftest import make_fast_config


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_core_backends() == ["fast", "reference"]

    def test_exactness_flags(self):
        # Byte-identity to the oracle is the price of registration.
        for name in available_core_backends():
            assert core_backend_is_exact(name)

    def test_only_reference_uses_reference_memory(self):
        for name in available_core_backends():
            backend = get_core_backend(name)
            assert backend.reference_memory == (name == "reference")

    def test_backends_have_descriptions(self):
        for name in available_core_backends():
            assert get_core_backend(name).description

    @pytest.mark.parametrize("name", ["no-such-core", "vector",
                                      "estimator"])
    def test_unknown_backend_raises_naming_available(self, name):
        """Unknown and retired names fail loudly, naming the real cores,
        through the registry and through the Session front door."""
        with pytest.raises(ConfigurationError,
                           match=r"'fast', 'reference'") as err:
            get_core_backend(name)
        assert repr(name) in str(err.value)
        with pytest.raises(ConfigurationError, match=r"'fast', 'reference'"):
            Session(core=name)

    def test_unknown_backend_is_not_exact(self):
        # Conservative: an unknown name must never join the byte-identity
        # store-key class.
        assert not core_backend_is_exact("no-such-core")

    def test_exactness_by_name(self):
        assert core_backend_is_exact("fast")
        assert core_backend_is_exact("reference")
        assert not core_backend_is_exact("vector")
        assert not core_backend_is_exact("estimator")

    def test_third_party_registration_dispatches(self):
        """A registered backend is constructible through GPUConfig."""
        reference = get_core_backend("reference")
        backend = CoreBackend(
            name="test-custom",
            factory=reference.factory,
            description="registry test double",
        )
        register_core_backend(backend)
        try:
            assert "test-custom" in available_core_backends()
            assert core_backend_is_exact("test-custom")
            gpu = GPU(make_fast_config(core_backend="test-custom"))
            workload = create_workload("vecadd", n=128, block_dim=64)
            workload.run(gpu)
            assert workload.verify(gpu)
        finally:
            CORE_BACKENDS.unregister("test-custom")

    def test_duplicate_registration_rejected(self):
        from repro.utils.errors import RegistryError

        with pytest.raises(RegistryError):
            register_core_backend(get_core_backend("fast"))


class TestGPUConfigShim:
    def test_reference_core_true_warns_and_normalizes(self):
        with pytest.deprecated_call():
            config = make_fast_config(reference_core=True)
        assert config.core_backend == "reference"
        # The stored boolean resets so the repr (and therefore the store
        # fingerprint) has one canonical form.
        assert config.reference_core is False

    def test_shim_repr_matches_canonical_form(self):
        with pytest.deprecated_call():
            shim = make_fast_config(reference_core=True)
        assert repr(shim) == repr(make_fast_config(core_backend="reference"))

    def test_core_accepts_backend_name_string(self):
        config = make_fast_config(core="reference")
        assert config.core_backend == "reference"
        from repro.simt.coreconfig import CoreConfig

        assert isinstance(config.core, CoreConfig)

    def test_empty_core_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fast_config(core_backend="")

    def test_unknown_backend_fails_at_gpu_construction(self):
        config = make_fast_config(core_backend="no-such-core")
        with pytest.raises(ConfigurationError):
            GPU(config)

    def test_shim_runs_end_to_end_byte_identical(self):
        """Acceptance: ``GPUConfig(reference_core=True)`` still runs, and
        its results are byte-identical to ``core_backend="reference"``."""
        def run(config):
            gpu = GPU(config)
            workload = create_workload("vecadd", n=256, block_dim=64)
            results = workload.run(gpu)
            assert workload.verify(gpu)
            return results

        with pytest.deprecated_call():
            shim_config = make_fast_config(reference_core=True)
        shim = run(shim_config)
        named = run(make_fast_config(core_backend="reference"))
        assert len(shim) == len(named)
        for a, b in zip(shim, named):
            assert a.cycles == b.cycles
            assert (json.dumps(a.stats, sort_keys=True)
                    == json.dumps(b.stats, sort_keys=True))


class TestSessionShim:
    def test_session_core_conflict_rejected(self):
        with pytest.deprecated_call():
            with pytest.raises(ExperimentError):
                Session(core="fast", reference_core=True)

    def test_session_shim_warns_and_maps(self):
        with pytest.deprecated_call():
            session = Session(reference_core=True)
        assert session.core == "reference"

    def test_parallel_executor_shim_warns_and_maps(self):
        from repro.experiments.parallel import ParallelExecutor

        with pytest.deprecated_call():
            executor = ParallelExecutor(jobs=1, reference_core=True)
        assert executor._core == "reference"

    def test_parallel_executor_core_conflict_rejected(self):
        from repro.experiments.parallel import ParallelExecutor

        with pytest.deprecated_call():
            with pytest.raises(ExperimentError):
                ParallelExecutor(jobs=1, core="fast", reference_core=True)

    def test_old_spec_dicts_round_trip(self):
        """Specs predate backends and never carried core fields; their
        dict form (and hash) is untouched by the backend redesign."""
        spec = Experiment.dynamic("gf100", "vecadd", n=256, block_dim=64)
        data = spec.to_dict()
        assert "core" not in data
        assert "reference_core" not in data
        rebuilt = Experiment.from_dict(data)
        assert rebuilt.spec_hash() == spec.spec_hash()
        assert rebuilt.to_dict() == data


class TestShimUniformity:
    """All three ``reference_core`` shims share one helper and one
    message shape: ``"<owner> is deprecated; use <replacement>"``."""

    def test_gpu_config_shim_message(self):
        with pytest.warns(DeprecationWarning,
                          match=r"GPUConfig\(reference_core=True\) is "
                                r"deprecated; use core_backend='reference'"):
            make_fast_config(reference_core=True)

    def test_session_shim_message(self):
        with pytest.warns(DeprecationWarning,
                          match=r"Session\(reference_core=True\) is "
                                r"deprecated; use core='reference'"):
            Session(reference_core=True)

    def test_parallel_executor_shim_message(self):
        from repro.experiments.parallel import ParallelExecutor

        with pytest.warns(DeprecationWarning,
                          match=r"ParallelExecutor\(reference_core=True\) is "
                                r"deprecated; use core='reference'"):
            ParallelExecutor(jobs=1, reference_core=True)
