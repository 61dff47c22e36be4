"""Workload parity across adders.

Every scenario stream in :mod:`repro.load` must produce identical
matches whether a plain CPU adder serves it through the fused kernels
("fused") or :class:`tests.oracles.PerPairAdder` forces one ``hom_add``
per pair ("object") — the fused kernels are a performance path, never a
semantic one.  The workload wrappers get the same treatment directly.
"""

import itertools

import pytest

import repro
from repro.core import ClientConfig
from repro.he import BFVParams
from repro.load import SCENARIO_REGISTRY
from repro.workloads.biometric import (
    BiometricWorkloadGenerator,
    SecureBiometricMatcher,
)
from repro.workloads.dna import DnaWorkloadGenerator
from repro.workloads.readmapper import SecureReadMapper
from tests.oracles import ADDER_KWARGS, PerPairAdder

PARAMS = BFVParams.test_small(64)
KERNELS = ["fused", "object"]


def _scenario_results(key, kernel, n):
    scenario = SCENARIO_REGISTRY.create(key, seed=13)
    with repro.open_session(
        "bfv-sharded",
        params=PARAMS,
        num_shards=2,
        key_seed=13,
        **ADDER_KWARGS[kernel]["bfv-sharded"],
        db_bits=scenario.db_bits(),
    ) as session:
        out = []
        for item in itertools.islice(scenario.requests(), n):
            result = session.search(item.request)
            if hasattr(result, "results"):  # batch
                out.append(tuple(tuple(r.matches) for r in result.results))
            else:
                out.append(tuple(result.matches))
        return out


class TestScenarioParityMatrix:
    """Same scenario stream, either adder, same matches."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_database_matches_oracle(self, kernel):
        scenario = SCENARIO_REGISTRY.create("database", seed=13)
        expected = [
            item.expected
            for item in itertools.islice(scenario.requests(), 4)
        ]
        got = _scenario_results("database", kernel, 4)
        assert got == expected

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_readmapper_batches_and_wildcards(self, kernel):
        # requests 1-4 cover three seed batches plus one wildcard read
        scenario = SCENARIO_REGISTRY.create("readmapper", seed=13)
        expected = [
            item.expected
            for item in itertools.islice(scenario.requests(), 4)
        ]
        got = _scenario_results("readmapper", kernel, 4)
        assert got == expected

    def test_dna_parity_across_kernels(self):
        runs = {
            kernel: _scenario_results("dna", kernel, 5)
            for kernel in ("fused", "object")
        }
        assert runs["fused"] == runs["object"]


def _use_adder(pipeline, kernel):
    if kernel == "object":
        pipeline.server.engine.backend = PerPairAdder(pipeline.client.ctx)


class TestWorkloadWrapperKernelKnob:
    """The workload wrappers answer the same through either adder."""

    def test_read_mapper_parity(self):
        workload = DnaWorkloadGenerator(seed=5).generate(
            num_bases=320, read_length_bases=16, num_reads=3,
            chunk_aligned=True,
        )
        verdicts = {}
        for kernel in ("fused", "object"):
            mapper = SecureReadMapper(
                workload.genome, ClientConfig(PARAMS), seed_bases=8
            )
            _use_adder(mapper.pipeline, kernel)
            verdicts[kernel] = [
                mapper.verify(mapper.map_read(read.sequence))
                for read in workload.reads
            ]
        assert verdicts["fused"] == verdicts["object"]
        assert verdicts["fused"] == [
            read.position_bases for read in workload.reads
        ]

    def test_biometric_matcher_parity(self):
        gallery = BiometricWorkloadGenerator(seed=5).generate(
            num_subjects=4, template_bits=64
        )
        outcomes = {}
        for kernel in ("fused", "object"):
            matcher = SecureBiometricMatcher(gallery, ClientConfig(PARAMS))
            _use_adder(matcher.pipeline, kernel)
            outcomes[kernel] = [
                (
                    matcher.authenticate(e.template).accepted,
                    matcher.authenticate(e.template).subject_id,
                )
                for e in gallery.enrollees
            ]
        assert outcomes["fused"] == outcomes["object"]
        assert all(accepted for accepted, _ in outcomes["fused"])
