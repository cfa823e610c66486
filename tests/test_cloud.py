"""Unit tests for the datacenter model (Fig. 7) and environment presets."""

import pytest

from repro.classifier.actions import ALLOW
from repro.core.usecases import use_case
from repro.exceptions import PolicyError, SimulationError
from repro.netsim.cloud import (
    ENVIRONMENTS,
    KUBERNETES_ENV,
    OPENSTACK_ENV,
    SYNTHETIC_ENV,
    Datacenter,
)
from repro.netsim.cms import PolicyRule
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP


class TestEnvironments:
    def test_three_testbeds(self):
        # The three Table 1 columns plus the multi-queue follow-up preset.
        assert set(ENVIRONMENTS) == {
            "Synthetic", "OpenStack", "Kubernetes", "Multiqueue"
        }
        for name in ("Synthetic", "OpenStack", "Kubernetes"):
            assert ENVIRONMENTS[name].n_pmd == 1  # the paper's single-PMD SUTs
        assert ENVIRONMENTS["Multiqueue"].n_pmd == 4

    def test_openstack_limits_acls(self):
        assert OPENSTACK_ENV.cms.max_use_case() == "SipDp"
        assert use_case(OPENSTACK_ENV.cms.max_use_case()).expected_max_masks == 512

    def test_kubernetes_runs_full_attack(self):
        assert KUBERNETES_ENV.cms.max_use_case() == "SipSpDp"
        assert KUBERNETES_ENV.cost_model.link_gbps == 1.0

    def test_openstack_quirks_enabled(self):
        assert OPENSTACK_ENV.quirks.established_flow_protection
        assert OPENSTACK_ENV.datapath.enable_mask_cache

    def test_synthetic_is_vanilla(self):
        assert not SYNTHETIC_ENV.quirks.established_flow_protection
        assert SYNTHETIC_ENV.cost_model.link_gbps == 10.0


class TestDatacenter:
    def test_fig7_layout(self):
        cloud = Datacenter(SYNTHETIC_ENV)
        v1 = cloud.launch_vm("victim", "V1", 0)
        a1 = cloud.launch_vm("attacker", "A1", 0)
        v2 = cloud.launch_vm("victim", "V2", 1)
        assert v1.server is a1.server  # co-located!
        assert v2.server is not v1.server
        assert v1.ip != a1.ip != v2.ip

    def test_shared_datapath_is_the_point(self):
        """Both tenants' ACLs land in the same switch (the attack premise)."""
        cloud = Datacenter(SYNTHETIC_ENV)
        v1 = cloud.launch_vm("victim", "V1", 0)
        a1 = cloud.launch_vm("attacker", "A1", 0)
        server = cloud.servers[0]
        server.install_policy(v1, [PolicyRule(dst_port=5001)], label="acl-v")
        server.install_policy(a1, [PolicyRule(dst_port=80)], label="acl-a")
        server.ensure_default_deny()
        names = [rule.name for rule in server.flow_table]
        assert "acl-v-r1" in names
        assert "acl-a-r1" in names

    def test_policy_scoped_to_vm(self):
        cloud = Datacenter(SYNTHETIC_ENV)
        v1 = cloud.launch_vm("victim", "V1", 0)
        a1 = cloud.launch_vm("attacker", "A1", 0)
        server = cloud.servers[0]
        server.install_policy(v1, [PolicyRule(dst_port=5001)])
        server.ensure_default_deny()
        to_victim = FlowKey(ip_proto=PROTO_TCP, ip_dst=v1.ip, tp_dst=5001)
        to_attacker = FlowKey(ip_proto=PROTO_TCP, ip_dst=a1.ip, tp_dst=5001)
        assert server.flow_table.classify(to_victim) == ALLOW
        assert server.flow_table.classify(to_attacker).is_drop

    def test_cms_enforced_per_environment(self):
        cloud = Datacenter(OPENSTACK_ENV)
        a1 = cloud.launch_vm("attacker", "A1", 0)
        with pytest.raises(PolicyError):
            cloud.servers[0].install_policy(a1, [PolicyRule(src_port=12345)])

    def test_vm_must_be_scheduled_on_server(self):
        cloud = Datacenter(SYNTHETIC_ENV)
        v1 = cloud.launch_vm("victim", "V1", 0)
        with pytest.raises(SimulationError):
            cloud.servers[1].install_policy(v1, [PolicyRule(dst_port=80)])

    def test_default_deny_added_once(self):
        cloud = Datacenter(SYNTHETIC_ENV)
        server = cloud.servers[0]
        server.ensure_default_deny()
        server.ensure_default_deny()
        assert len(server.flow_table) == 1

    def test_tenant_registry(self):
        cloud = Datacenter(SYNTHETIC_ENV)
        cloud.launch_vm("victim", "V1", 0)
        cloud.launch_vm("victim", "V2", 0)
        assert len(cloud.tenant("victim").vms) == 2

    def test_validation(self):
        cloud = Datacenter(SYNTHETIC_ENV)
        with pytest.raises(SimulationError):
            cloud.launch_vm("t", "vm", 7)

    def test_guard_option(self):
        cloud = Datacenter(SYNTHETIC_ENV, with_guard=True)
        assert cloud.servers[0].host.guard is not None
