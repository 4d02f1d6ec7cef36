"""Tests for the simulation-core backend registry and the ways to pick one.

Covers the :mod:`repro.simt.backend` front door (registry contents,
lookup errors, exactness queries, third-party registration) and the
core-selection surface: ``GPUConfig.core_backend``, ``Session(core=)``,
``ParallelExecutor(core=)`` and ``--core`` are the only spellings, and
every retired spelling fails loudly — the API-surface half of the
golden-equivalence guarantees pinned in ``test_fastpath_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import Experiment, Session
from repro.experiments.parallel import ParallelExecutor
from repro.gpu import GPU
from repro.simt.backend import (
    CORE_BACKENDS,
    CoreBackend,
    available_core_backends,
    core_backend_is_exact,
    get_core_backend,
    register_core_backend,
)
from repro.utils.errors import ConfigurationError
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
    def test_empty_core_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fast_config(core_backend="")

    def test_unknown_backend_fails_at_gpu_construction(self):
        config = make_fast_config(core_backend="no-such-core")
        with pytest.raises(ConfigurationError):
            GPU(config)


class TestSessionShim:
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


#: Every retired core-selection spelling, with how it must fail.
RETIRED_SPELLINGS = {
    "Session(reference_core=True)":
        (TypeError, lambda: Session(reference_core=True)),
    "Session(core_backend='reference')":
        (TypeError, lambda: Session(core_backend="reference")),
    "ParallelExecutor(reference_core=True)":
        (TypeError, lambda: ParallelExecutor(jobs=1, reference_core=True)),
    "GPUConfig(reference_core=True)":
        (TypeError, lambda: make_fast_config(reference_core=True)),
    "GPUConfig(core='reference')":
        (ConfigurationError, lambda: make_fast_config(core="reference")),
    "repro-dynamic--reference-core":
        (SystemExit, lambda: main(["dynamic", "--config", "gf100",
                                   "--workload", "vecadd", "--param", "n=64",
                                   "--reference-core"])),
}


class TestRetiredSpellings:
    """``core_backend`` / ``core=`` / ``--core`` are the only ways to
    choose a core; the spellings retired with the ``reference_core``
    shims fail loudly instead of being silently ignored."""

    @pytest.mark.parametrize("spelling", sorted(RETIRED_SPELLINGS))
    def test_retired_spelling_fails_loudly(self, spelling, capsys):
        error, attempt = RETIRED_SPELLINGS[spelling]
        with pytest.raises(error) as excinfo:
            attempt()
        if error is SystemExit:
            assert excinfo.value.code == 2
            assert "--reference-core" in capsys.readouterr().err
        elif error is ConfigurationError:
            assert "core_backend" in str(excinfo.value)
