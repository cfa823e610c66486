"""Unit tests for the CMS policy backends (§7 expressiveness bounds)."""

import pytest

from repro.exceptions import PolicyError
from repro.netsim.cms import (
    BACKENDS,
    CalicoPolicy,
    KubernetesNetworkPolicy,
    OpenStackSecurityGroups,
    PolicyRule,
)
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP, PROTO_UDP

VM_IP = 0xC0000201


class TestPolicyRule:
    def test_validation(self):
        with pytest.raises(PolicyError):
            PolicyRule(protocol="icmp")


class TestOpenStack:
    def test_sipdp_expressible(self):
        backend = OpenStackSecurityGroups()
        rule = backend.compile_rule(
            PolicyRule(remote_ip=(0x0A000001, 0xFFFFFFFF), dst_port=80),
            vm_ip=VM_IP, priority=10, name="sg-1",
        )
        assert rule.match.constraint("ip_src") == (0x0A000001, 0xFFFFFFFF)
        assert rule.match.constraint("tp_dst") == (80, 0xFFFF)
        assert rule.match.constraint("ip_dst") == (VM_IP, 0xFFFFFFFF)

    def test_source_port_rejected(self):
        """§5.5: 'The CMS API only allows the SipDp scenario'."""
        backend = OpenStackSecurityGroups()
        with pytest.raises(PolicyError, match="source port"):
            backend.validate(PolicyRule(src_port=12345))

    def test_ceiling(self):
        assert OpenStackSecurityGroups().max_use_case() == "SipDp"


class TestKubernetes:
    def test_source_port_rejected(self):
        with pytest.raises(PolicyError):
            KubernetesNetworkPolicy().validate(PolicyRule(src_port=1))

    def test_ingress_ipblock_and_port(self):
        backend = KubernetesNetworkPolicy()
        rule = backend.compile_rule(
            PolicyRule(remote_ip=(0x0A000000, 0xFF000000), dst_port=443),
            vm_ip=VM_IP, priority=5,
        )
        key_ok = FlowKey(ip_proto=PROTO_TCP, ip_dst=VM_IP, ip_src=0x0A010101, tp_dst=443)
        assert rule.matches(key_ok)


class TestCalico:
    def test_source_port_allowed(self):
        """§7: Calico unlocks the full Fig. 6 / SipSpDp ACL."""
        backend = CalicoPolicy()
        rule = backend.compile_rule(
            PolicyRule(src_port=12345), vm_ip=VM_IP, priority=5
        )
        assert rule.match.constraint("tp_src") == (12345, 0xFFFF)
        assert backend.max_use_case() == "SipSpDp"


class TestCommonCompilation:
    def test_udp_protocol(self):
        rule = BACKENDS["calico"].compile_rule(
            PolicyRule(protocol="udp", dst_port=53), vm_ip=VM_IP, priority=1
        )
        assert rule.match.constraint("ip_proto") == (PROTO_UDP, 0xFF)

    def test_registry(self):
        assert set(BACKENDS) == {"openstack", "kubernetes", "calico"}
