"""One client, many backends: the public service API of the reproduction.

The paper's deployment story (Section 1's curator/analyst split) as a
protocol-first Python surface:

* :class:`OsdpClient` — the single entry point: ``release`` /
  ``release_batch`` / ``true_histogram`` plus live-data updates.
* :class:`Backend` — the substrate protocol, with
  :class:`InProcessBackend`, :class:`ShardedBackend` (optionally on
  the shard-resident worker pool), :class:`RemoteBackend` (socket
  client for :class:`repro.service.rpc.RpcServer`) and
  :class:`ClusterBackend` (replicated shard-range fleet with
  failover; see :mod:`repro.api.cluster` and ``docs/OPERATIONS.md``).
* :mod:`repro.api.resilience` — retry/backoff/deadline and
  endpoint-health primitives the remote tiers build on.
* :mod:`repro.api.wire` — the canonical JSON / length-prefixed-frame
  wire format of :class:`~repro.service.server.ReleaseRequest` and
  :class:`~repro.service.server.ReleaseResponse`.

See ``docs/API.md`` for the full reference and deployment sketch.
"""

from repro.api.backends import (
    Backend,
    InProcessBackend,
    RemoteBackend,
    ShardedBackend,
)
from repro.api.client import OsdpClient
from repro.api.cluster import (
    ClusterBackend,
    ClusterEndpoint,
    ClusterWriteError,
    PartialClusterError,
)
from repro.api.resilience import (
    DeadlineExceeded,
    RetryPolicy,
    ServerOverloaded,
)
from repro.service.server import (
    BatchBudgetExceededError,
    ReleaseRequest,
    ReleaseResponse,
)

__all__ = [
    "Backend",
    "BatchBudgetExceededError",
    "ClusterBackend",
    "ClusterEndpoint",
    "ClusterWriteError",
    "DeadlineExceeded",
    "InProcessBackend",
    "OsdpClient",
    "PartialClusterError",
    "ReleaseRequest",
    "ReleaseResponse",
    "RemoteBackend",
    "RetryPolicy",
    "ServerOverloaded",
    "ShardedBackend",
]
