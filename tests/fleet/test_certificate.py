"""Verify once, load by signature: the registry's toolchain verifies
each release once, and nodes of the fleet's image load it by its
certificate instead of running their own verifier."""

import dataclasses

import pytest

from repro.ebpf.asm import Asm
from repro.ebpf.isa import R0, R1
from repro.ebpf.progs import ProgType
from repro.errors import VerifierError
from repro.fleet import ReleaseRegistry
from repro.fleet.adapters.node import FleetNode
from repro.fleet.adapters.sim import EXTENSION, build_scenario, \
    default_fleet_spec
from repro.fleet.demo import node_verifier_runs
from repro.net.programs import port_filter_prog

FLEET = 40
SEED = 7


@pytest.fixture
def scenario(leakcheck):
    """A wired 40-node scenario; every kernel leak-checked."""
    built = build_scenario(size=FLEET, seed=SEED)
    for node in built.fleet.nodes():
        leakcheck(node.kernel)
    return built


class TestVerifyOnce:
    def test_good_rollout_runs_no_node_verifier(self, scenario,
                                                verify_calls):
        report = scenario.orchestrator.rollout(
            scenario.good.release_id, seed=SEED)
        assert report.outcome == "completed"
        assert report.converged_nodes == FLEET
        assert verify_calls == []
        assert node_verifier_runs(scenario) == 0

    def test_bad_rollout_and_rollback_run_no_node_verifier(
            self, scenario, verify_calls):
        report = scenario.orchestrator.rollout(
            scenario.bad.release_id, seed=SEED)
        assert report.outcome == "rolled-back"
        assert verify_calls == []
        assert node_verifier_runs(scenario) == 0

    def test_publish_verifies_once_and_republish_not_at_all(
            self, scenario, verify_calls):
        release = scenario.registry.publish(
            EXTENSION, "3.0.0", port_filter_prog(8080), ProgType.XDP)
        assert len(verify_calls) == 1
        again = scenario.registry.publish(
            EXTENSION, "3.0.0", port_filter_prog(8080), ProgType.XDP)
        assert again is release
        assert len(verify_calls) == 1

    def test_rejected_program_is_not_published(self, scenario):
        # returns the context pointer: a pointer leak, rejected
        leaky = Asm().mov64_reg(R0, R1).exit_().program()
        before = scenario.registry.releases()
        with pytest.raises(VerifierError):
            scenario.registry.publish(EXTENSION, "9.9.9", leaky,
                                      ProgType.XDP)
        assert scenario.registry.releases() == before
        with pytest.raises(KeyError):
            scenario.registry.get(f"{EXTENSION}@9.9.9")


class TestCertificateTampering:
    def test_altered_certificate_refused_as_signature(self, scenario):
        forged = dataclasses.replace(
            scenario.good, certificate="0" * 64)
        node = scenario.fleet.nodes()[0]
        result = node.deploy(forged)
        assert not result.ok
        assert result.error == "signature"
        assert node.current.release_id == scenario.baseline.release_id

    def test_altered_certificate_rejected_by_orchestrator(self,
                                                          scenario):
        forged = dataclasses.replace(
            scenario.good, certificate=scenario.bad.certificate)
        scenario.registry._releases[forged.release_id] = forged
        report = scenario.orchestrator.rollout(
            forged.release_id, seed=SEED)
        assert report.outcome == "rejected"
        assert not report.verdicts


class TestOtherNodeImage:
    def test_node_with_other_verdict_inputs_verifies_itself(
            self, scenario, verify_calls):
        """A node without the JIT computes another load key, so the
        release's certificate does not bind: it verifies the release
        itself, and the deploy still succeeds."""
        spec = dataclasses.replace(default_fleet_spec(SEED),
                                   use_jit=False)
        node = FleetNode("odd-000", spec, scenario.registry.key)
        result = node.deploy(scenario.good)
        assert result.ok
        assert len(verify_calls) == 1
        stats = node.bpf.all_progs()[-1].verifier_stats
        assert not stats.certified
        assert stats.insns_processed > 0

    def test_toolchain_needs_no_key_of_its_own(self, toolchain):
        """The registry's toolchain certifies; it trusts no signer."""
        assert toolchain.trusted_key is None
        registry = ReleaseRegistry(toolchain)
        release = registry.publish(EXTENSION, "1.0.0",
                                   port_filter_prog(), ProgType.XDP)
        assert registry.verify(release)
        assert release.as_dict()["certificate"] == release.certificate
