"""Flow actions: what a classifier decides to do with a matched packet.

The paper's ACLs only need *allow* and *deny*; the switch simulator also
needs *forward to port*.  Actions are small frozen dataclasses so they can
live inside hashable megaflow entries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["ActionKind", "Action", "ALLOW", "DENY"]


class ActionKind(enum.Enum):
    """The primitive action types of the simulated pipeline."""

    ALLOW = "allow"
    DENY = "deny"
    FORWARD = "forward"


@dataclass(frozen=True)
class Action:
    """A packet-processing action.

    Attributes:
        kind: the primitive (allow / deny / forward).
        out_port: output port for FORWARD actions; ``None`` otherwise.
    """

    kind: ActionKind
    out_port: int | None = None

    @property
    def is_drop(self) -> bool:
        """True for deny actions (the entries MFCGuard evicts)."""
        return self.kind is ActionKind.DENY

    def __str__(self) -> str:
        if self.kind is ActionKind.FORWARD:
            return f"forward:{self.out_port}"
        return self.kind.value


ALLOW = Action(ActionKind.ALLOW)
DENY = Action(ActionKind.DENY)
