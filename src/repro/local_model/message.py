"""Messages exchanged in the synchronous LOCAL model simulator.

The LOCAL model allows messages of unbounded size, so the payload may be
any Python object.  Messages record sender, receiver and the round in
which they were sent; the network delivers them at the start of the next
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

Vertex = Hashable


@dataclass(frozen=True)
class Message:
    """A single message in a LOCAL execution.

    Attributes
    ----------
    sender:
        The vertex that sent the message.
    receiver:
        The neighbor the message is addressed to.
    round_sent:
        The (0-based) round in which the message was sent.
    payload:
        Arbitrary content; the LOCAL model places no bound on message size.
    """

    sender: Vertex
    receiver: Vertex
    round_sent: int
    payload: Any

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message({self.sender!r} -> {self.receiver!r}, "
            f"round={self.round_sent}, payload={self.payload!r})"
        )


@dataclass
class Inbox:
    """The messages a node receives at the start of a round, grouped by sender."""

    messages: dict

    def from_neighbor(self, neighbor: Vertex, default: Any = None) -> Any:
        """Return the payload sent by ``neighbor`` last round (or ``default``)."""
        msg = self.messages.get(neighbor)
        return msg.payload if msg is not None else default

    def __len__(self) -> int:
        return len(self.messages)
