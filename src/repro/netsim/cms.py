"""Cloud management system (CMS) policy APIs and their ACL expressiveness.

§7 of the paper maps attack surface to CMS expressiveness:

* **OpenStack security groups** — ingress rules filter on remote (source)
  IP prefix and destination port only ⇒ at most the SipDp scenario
  (32·16 = 512 masks).
* **Kubernetes NetworkPolicy** — ingress from ipBlock + destination ports;
  same SipDp ceiling.
* **Calico** — additionally supports *source* ports on ingress
  (⇒ SipSpDp, 8192 masks).  §7 adds that Calico's egress policies also
  filter on the destination IP (⇒ ~200 k masks); egress rules are not
  modelled here — every rule is an ingress rule scoped to the target VM.

Each backend validates a vendor-neutral :class:`PolicyRule` against its
expressiveness and compiles accepted rules into flow rules scoped to the
target VM — rejecting what the real API would reject, which is exactly how
the paper distinguishes its OpenStack and Kubernetes testbeds.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.classifier.actions import ALLOW
from repro.classifier.rule import FlowRule, Match
from repro.exceptions import PolicyError
from repro.packet.headers import PROTO_TCP, PROTO_UDP

__all__ = [
    "PolicyRule",
    "CmsBackend",
    "OpenStackSecurityGroups",
    "KubernetesNetworkPolicy",
    "CalicoPolicy",
    "BACKENDS",
]

_PROTO_NUMBERS = {"tcp": PROTO_TCP, "udp": PROTO_UDP}


@dataclass(frozen=True)
class PolicyRule:
    """A vendor-neutral ACL rule a tenant asks the CMS to install.

    Every rule is an ingress rule (traffic towards the VM).

    Attributes:
        protocol: ``"tcp"`` or ``"udp"``.
        remote_ip: source prefix as ``(address, mask)``; None = any.
        src_port: exact source port; None = any.
        dst_port: exact destination port; None = any.
    """

    protocol: str = "tcp"
    remote_ip: tuple[int, int] | None = None
    src_port: int | None = None
    dst_port: int | None = None

    def __post_init__(self) -> None:
        if self.protocol not in _PROTO_NUMBERS:
            raise PolicyError(f"unknown protocol {self.protocol!r}")


class CmsBackend(abc.ABC):
    """One CMS's security-policy API."""

    name: str = "cms"

    @abc.abstractmethod
    def validate(self, rule: PolicyRule) -> None:
        """Raise :class:`PolicyError` when the API cannot express ``rule``."""

    def compile_rule(
        self, rule: PolicyRule, vm_ip: int, priority: int, name: str = ""
    ) -> FlowRule:
        """Compile an accepted rule into a flow rule scoped to ``vm_ip``."""
        self.validate(rule)
        constraints: dict[str, int | tuple[int, int]] = {
            "ip_proto": _PROTO_NUMBERS[rule.protocol],
            "ip_dst": vm_ip,
        }
        if rule.remote_ip is not None:
            constraints["ip_src"] = rule.remote_ip
        if rule.src_port is not None:
            constraints["tp_src"] = rule.src_port
        if rule.dst_port is not None:
            constraints["tp_dst"] = rule.dst_port
        return FlowRule(match=Match(**constraints), action=ALLOW, priority=priority, name=name)

    def max_use_case(self) -> str:
        """The most aggressive §5.2 scenario this API admits."""
        return "SipDp"


class OpenStackSecurityGroups(CmsBackend):
    """OpenStack: ingress filtering on remote IP and destination port only."""

    name = "openstack"

    def validate(self, rule: PolicyRule) -> None:
        if rule.src_port is not None:
            raise PolicyError(
                "OpenStack security groups cannot filter on the source port "
                "(the CMS API only allows the SipDp scenario, §5.5)"
            )

    def max_use_case(self) -> str:
        return "SipDp"


class KubernetesNetworkPolicy(CmsBackend):
    """Vanilla Kubernetes NetworkPolicy: ipBlock + destination ports."""

    name = "kubernetes"

    def validate(self, rule: PolicyRule) -> None:
        if rule.src_port is not None:
            raise PolicyError("Kubernetes NetworkPolicy cannot filter on the source port")

    def max_use_case(self) -> str:
        return "SipDp"


class CalicoPolicy(CmsBackend):
    """Calico: adds source-port ingress filters.

    This is the plugin that unlocks the full-blown Fig. 6 ACL ("already
    enough for a full-blown DoS", §7); in the paper's Kubernetes testbed
    the source-port rules were injected manually because Kubernetes/OVN
    did not support full Calico semantics — either way the resulting flow
    table is the same.
    """

    name = "calico"

    def validate(self, rule: PolicyRule) -> None:
        """Calico expresses every ingress rule."""

    def max_use_case(self) -> str:
        return "SipSpDp"


BACKENDS: dict[str, CmsBackend] = {
    backend.name: backend
    for backend in (OpenStackSecurityGroups(), KubernetesNetworkPolicy(), CalicoPolicy())
}
