"""NIC models: standard, EFW and ADF.

The device under test in the paper is the NIC itself.  All three models
share the framing/attachment machinery of :class:`~repro.nic.base.BaseNic`;
the embedded firewalls add the bounded single-processor cost engine
(:mod:`repro.nic.embedded`) whose saturation behaviour *is* the paper's
denial-of-service result.
"""

from repro import _lazy

__all__ = [
    "AdfNic",
    "BaseNic",
    "DenyFloodLockupFault",
    "EfwNic",
    "HARDENED_COST_MODEL",
    "HardenedNic",
    "EmbeddedFirewallNic",
    "ServiceQueue",
    "StandardNic",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".adf": ("AdfNic",),
    ".base": ("BaseNic",),
    ".embedded": ("EmbeddedFirewallNic",),
    ".efw": ("EfwNic",),
    ".faults": ("DenyFloodLockupFault",),
    ".hardened": ("HARDENED_COST_MODEL", "HardenedNic"),
    ".queues": ("ServiceQueue",),
    ".standard": ("StandardNic",),
})
