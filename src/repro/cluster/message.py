"""Message vocabulary of the CDD protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

#: Fixed protocol header per message (request ids, addresses, checksums).
HEADER_BYTES = 128
#: Small acknowledgement / lock-grant message size.
ACK_BYTES = 64


class MessageKind(str, Enum):
    """Wire message types between cooperative disk drivers."""

    READ_REQ = "read_req"
    READ_REPLY = "read_reply"
    WRITE_REQ = "write_req"
    WRITE_ACK = "write_ack"
    LOCK_REQ = "lock_req"
    LOCK_GRANT = "lock_grant"
    LOCK_RELEASE = "lock_release"
    INVALIDATE = "invalidate"
    CKPT_MARKER = "ckpt_marker"
    RPC_REQ = "rpc_req"  # NFS-style user-level RPC
    RPC_REPLY = "rpc_reply"


def read_request_size() -> int:
    return HEADER_BYTES


def read_reply_size(nbytes: int) -> int:
    return HEADER_BYTES + nbytes


def write_request_size(nbytes: int) -> int:
    return HEADER_BYTES + nbytes


def write_ack_size() -> int:
    return ACK_BYTES


@dataclass
class MessageStats:
    """Per-cluster accounting of protocol traffic."""

    by_kind: dict = field(default_factory=dict)
    total_messages: int = 0
    total_bytes: float = 0.0
    remote_block_ops: int = 0
    local_block_ops: int = 0

    def record(self, kind: MessageKind, nbytes: int) -> None:
        """Count one message of ``kind`` carrying ``nbytes`` (payload is
        size-only: timing model).  NaN is rejected as negative, before
        any counter moves."""
        if not nbytes >= 0:
            raise ValueError("negative message size")
        self.total_messages += 1
        self.total_bytes += nbytes
        k = kind._value_  # the plain attribute behind ``kind.value``
        cnt, size = self.by_kind.get(k, (0, 0.0))
        self.by_kind[k] = (cnt + 1, size + nbytes)

    def summary(self) -> dict:
        return {
            "messages": self.total_messages,
            "bytes": self.total_bytes,
            "remote_block_ops": self.remote_block_ops,
            "local_block_ops": self.local_block_ops,
            "by_kind": dict(self.by_kind),
        }
