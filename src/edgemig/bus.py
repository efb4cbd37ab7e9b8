"""Messaging primitives for the migration protocol.

The protocol runs over a topic-based bus with three message kinds:
publications (fan out to subscribers), queries (routed to the agent that
owns the topic), and replies (routed back to the querier of their topic,
since a reply travels on the topic of the query it answers). Topics follow
the scheme ``mig/{task_id}/{role}/{name}``; the role segment names the
agent that owns or emits on the subtree.

Which roles receive a publication or a query is written down once, in
:func:`edgemig.agents.subscriptions`; no topic string is taken apart.
Messages never leave the process (the simulator delivers them in memory),
so headers may carry typed objects, such as the task description. Bulk
image payloads are carried by size only: the simulator charges transfer
time explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import DomainError

TOPIC_PREFIX = "mig"


class MessageKind(str, Enum):
    PUBLISH = "publish"
    QUERY = "query"
    REPLY = "reply"


@dataclass(frozen=True, slots=True)
class BusMessage:
    """One protocol message.

    payload_bytes is the bulk size riding along (zero for pure signaling),
    headers carry typed metadata (namespace configuration, reason, task).
    A reply carries the topic of the one query it answers.
    """

    kind: MessageKind
    topic: str
    sender: str
    payload_bytes: float = 0.0
    headers: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.topic:
            raise DomainError("topic must be non-empty")
        if self.payload_bytes < 0:
            raise DomainError("payload_bytes must be >= 0")


def topic(task_id: str, role: str, *name: object) -> str:
    """Build a protocol topic, e.g. topic(t, "source", "round", 2, "ready")."""
    parts = [TOPIC_PREFIX, task_id, role]
    parts.extend(str(p) for p in name)
    return "/".join(parts)
