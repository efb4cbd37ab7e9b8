"""Messaging primitives for the migration protocol.

The protocol runs over a topic-based bus with three message kinds:
publications (fan out to subscribers), queries (routed to the agent that
owns the topic), and replies (routed back to the querier of their topic,
since a reply travels on the topic of the query it answers). Topics follow
the scheme ``mig/{task_id}/{role}/{name}``; the role segment names the
agent that owns or emits on the subtree.

Each topic, and which roles receive each message, replies included, is
written down once, in the protocol table :func:`edgemig.agents.clean_run`;
no topic string is taken apart. Messages never leave the process (the
simulator delivers them in memory), so headers may carry typed objects,
such as the task description. Bulk image payloads are carried by size
only: the simulator charges transfer time explicitly.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple, Optional

from .errors import DomainError


class MessageKind(str, Enum):
    PUBLISH = "publish"
    QUERY = "query"
    REPLY = "reply"


class _Fields(NamedTuple):
    kind: MessageKind
    topic: str
    sender: str
    payload_bytes: float
    headers: Mapping[str, object]


class BusMessage(_Fields):
    """One protocol message.

    payload_bytes is the bulk size riding along (zero for pure signaling),
    headers carry typed metadata (namespace configuration, reason, task).
    A reply carries the topic of the one query it answers. A ``NamedTuple``
    whose ``__new__`` checks it: see the agents docstring for why.
    """

    __slots__ = ()

    def __new__(cls, kind: MessageKind, topic: str, sender: str,
                payload_bytes: float = 0.0,
                headers: Optional[Mapping[str, object]] = None) -> BusMessage:
        if not topic:
            raise DomainError("topic must be non-empty")
        if payload_bytes < 0:
            raise DomainError("payload_bytes must be >= 0")
        return tuple.__new__(cls, (kind, topic, sender, payload_bytes,
                                   {} if headers is None else headers))

    @classmethod
    def _make(cls, iterable) -> BusMessage:  # so _replace checks too
        return cls(*iterable)

