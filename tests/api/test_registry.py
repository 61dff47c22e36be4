"""Registry resolution, capability validation, and error taxonomy."""

import numpy as np
import pytest

import repro
from repro.api import (
    DEFAULT_REGISTRY,
    Capabilities,
    CapabilityError,
    EngineRegistry,
    ExactSearch,
    PlaintextEngine,
    UnknownEngineError,
    VerifyPolicy,
    WildcardSearch,
)

ALL_KEYS = (
    "bfv",
    "bfv-wire",
    "bfv-sharded",
    "plaintext",
    "boolean-bfv",
    "boolean-tfhe",
    "yasuda",
    "kim-homeq",
    "bonte",
    "remote",
)


class TestResolution:
    def test_default_registry_keys(self):
        assert set(DEFAULT_REGISTRY.keys()) == set(ALL_KEYS)

    def test_contains(self):
        assert "bfv-sharded" in DEFAULT_REGISTRY
        assert "enigma" not in DEFAULT_REGISTRY

    def test_unknown_key_raises_with_known_keys_listed(self):
        with pytest.raises(UnknownEngineError) as exc:
            DEFAULT_REGISTRY.spec("enigma")
        assert "enigma" in str(exc.value)
        assert "bfv-sharded" in str(exc.value)

    def test_unknown_key_is_a_keyerror(self):
        with pytest.raises(KeyError):
            DEFAULT_REGISTRY.create("enigma")

    def test_open_session_unknown_key(self):
        with pytest.raises(UnknownEngineError):
            repro.open_session("enigma")

    def test_cli_search_unknown_engine_exits_cleanly(self, capsys):
        from repro.__main__ import main

        assert main(["search", "--engine", "enigma", "--query", "x"]) == 2
        assert "no engine registered" in capsys.readouterr().out

    def test_cli_has_no_poly_backend_flag(self, capsys):
        """The five subcommands that took ``--poly-backend`` reject it
        as argparse rejects any unknown option: usage on stderr, exit 2."""
        from repro.__main__ import main

        for command in ("demo", "search", "serve", "serve-net", "load"):
            assert main([command, "--poly-backend", "reference"]) == 2
            assert "--poly-backend" in capsys.readouterr().err

    def test_unknown_engine_kwarg_fails_loudly(self):
        with pytest.raises(TypeError):
            DEFAULT_REGISTRY.create("plaintext", num_shards=4)

    def test_specs_carry_summaries_and_capabilities(self):
        for spec in DEFAULT_REGISTRY:
            assert spec.summary
            assert isinstance(spec.capabilities, Capabilities)

    def test_capability_matrix_lists_every_engine(self):
        matrix = DEFAULT_REGISTRY.capability_matrix()
        for key in ALL_KEYS:
            assert key in matrix


class TestCustomRegistration:
    def test_register_and_create(self):
        reg = EngineRegistry()
        reg.register_engine_class(PlaintextEngine, summary="oracle")
        engine = reg.create("plaintext")
        engine.outsource(np.array([1, 0, 1], dtype=np.uint8))
        assert engine.db_bit_length == 3

    def test_duplicate_key_rejected_without_overwrite(self):
        reg = EngineRegistry()
        reg.register_engine_class(PlaintextEngine, summary="oracle")
        with pytest.raises(ValueError, match="already registered"):
            reg.register_engine_class(PlaintextEngine, summary="again")
        reg.register_engine_class(
            PlaintextEngine, summary="again", overwrite=True
        )
        assert reg.spec("plaintext").summary == "again"

    def test_open_session_with_custom_registry(self):
        reg = EngineRegistry()
        reg.register_engine_class(PlaintextEngine, summary="oracle")
        db = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        with repro.open_session("plaintext", registry=reg, db_bits=db) as s:
            assert list(s.search(np.array([1, 1], dtype=np.uint8)).matches) == [2]


class TestCapabilityMismatch:
    def test_wildcard_to_non_wildcard_engine_raises(self):
        """The headline mismatch: a wildcard request routed to an engine
        without a wildcard path."""
        with repro.open_session("yasuda", seed=1) as session:
            session.outsource(np.zeros(64, dtype=np.uint8))
            with pytest.raises(CapabilityError, match="wildcard"):
                session.search(WildcardSearch.from_text("a?c"))

    def test_explicit_verify_on_unverifiable_engine_raises(self):
        with repro.open_session("kim-homeq", seed=1) as session:
            session.outsource(np.zeros(16, dtype=np.uint8))
            with pytest.raises(CapabilityError, match="verification"):
                session.search(
                    ExactSearch.from_bits([1, 0], verify=VerifyPolicy.VERIFY)
                )

    def test_query_over_engine_cap_raises(self):
        with repro.open_session("bonte", seed=1) as session:
            session.outsource(np.zeros(16, dtype=np.uint8))
            with pytest.raises(CapabilityError, match="caps queries"):
                session.search(np.ones(8, dtype=np.uint8))

    def test_submit_validates_before_queueing(self):
        """Async submission fails at submit time, not inside a future."""
        with repro.open_session("yasuda", seed=2) as session:
            session.outsource(np.zeros(64, dtype=np.uint8))
            with pytest.raises(CapabilityError):
                session.submit(WildcardSearch.from_text("a?c"))

    def test_auto_policy_skips_verification_gracefully(self):
        """AUTO on an engine without verification does not raise — it
        resolves to skip."""
        db = np.zeros(16, dtype=np.uint8)
        db[4:8] = 1
        with repro.open_session("kim-homeq", seed=3, db_bits=db) as session:
            result = session.search(np.array([1, 1, 1, 1], dtype=np.uint8))
        assert list(result.matches) == [4]
        assert result.verified is False
