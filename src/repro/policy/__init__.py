"""Central policy plane: server, NIC agents, VPG groups, audit trail."""

from repro import _lazy

__all__ = [
    "AGENT_PORT",
    "HEARTBEAT_PORT",
    "AuditEvent",
    "AuditEventKind",
    "AuditLog",
    "HostPushOutcome",
    "NicAgent",
    "PolicyServer",
    "PushReport",
    "VpgGroup",
    "VpgGroupManager",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".audit": ("AuditEvent", "AuditEventKind", "AuditLog"),
    ".groups": ("VpgGroup", "VpgGroupManager"),
    ".push": ("HostPushOutcome", "PushReport"),
    ".server": ("AGENT_PORT", "HEARTBEAT_PORT", "NicAgent", "PolicyServer"),
})
