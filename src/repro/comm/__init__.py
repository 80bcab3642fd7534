"""The uniform data communication layer (paper Section 3).

This layer "handles heterogeneous networking protocols and provides a
dynamic, logical view of networked devices for applications". Its three
components, per the paper:

1. device profiles — registered via
   :meth:`CommunicationLayer.register_device_type`;
2. scan operators over virtual device tables — :class:`ScanOperator`;
3. basic communication methods (``connect/close/send/receive``) —
   one call, the same for every device type: ``Transport.exchange``
   checks the device's channel out (connect), runs each message's
   ``Connection.request`` (send + receive) and hands the channel back
   (close). What differs per type is data, not code: its
   ``LinkModel``, probe TIMEOUT and catalog.

The probing mechanism of Section 4 also lives here
(:class:`Prober`), since a probe is a communication-layer exchange.

Two amortization layers sit on top (see DESIGN.md decision 10): the
transport's :class:`ConnectionPool` reuses keep-alive connections
across scans and probes (action executions run on the device model and
never cross the transport), and the opt-in
:class:`DeviceStatusCache` lets the dispatcher skip probe exchanges for
recently-seen devices under a per-type freshness TTL.
"""

from repro.comm.layer import CommunicationLayer
from repro.comm.pool import ConnectionPool
from repro.comm.probe import DEFAULT_TIMEOUTS, Prober, ProbeResult
from repro.comm.scan import ScanOperator
from repro.comm.status_cache import DEFAULT_STATUS_TTLS, DeviceStatusCache
from repro.comm.tuples import DeviceTuple

__all__ = [
    "CommunicationLayer",
    "ConnectionPool",
    "DEFAULT_STATUS_TTLS",
    "DEFAULT_TIMEOUTS",
    "DeviceStatusCache",
    "DeviceTuple",
    "Prober",
    "ProbeResult",
    "ScanOperator",
]
