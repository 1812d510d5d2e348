"""The one client every caller talks to, whatever runs underneath.

Before this layer, a caller had to pick among ``ColumnarDatabase``,
``ShardedColumnarDatabase``, ``ShardWorkerPool`` and ``ReleaseServer``
by hand and then choose the right of four per-mechanism entry points.
:class:`OsdpClient` replaces all of that with the paper's deployment
shape — a curator serving releases to analysts — behind one surface::

    from repro.api import OsdpClient
    from repro.queries.histogram import IntegerBinning

    with OsdpClient.in_process(db) as client:       # or .sharded / .connect
        response = client.release(
            mechanism="osdp_laplace_l1",
            epsilon=0.5,
            binning=IntegerBinning("age", 0, 100, 10),
            policy={"attr": "age", "op": "<=", "value": 17},
            seed=7,
        )
    response.estimates        # (n_trials, n_bins)

The same call works against every backend, and for the same request
and seed returns **bit-identical** estimates — swapping a notebook's
in-process backend for a production socket is a one-line change that
cannot alter results.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.api.backends import (
    Backend,
    InProcessBackend,
    RemoteBackend,
    ShardedBackend,
)
from repro.service.server import ReleaseRequest, ReleaseResponse


class OsdpClient:
    """Issue release requests against any :class:`~repro.api.Backend`.

    ``analyst`` names the caller: every request this client sends that
    does not already carry an ``analyst`` field is stamped with it, so
    a quota-enforcing accountant books the charge against this
    analyst's sub-budget (see
    :class:`repro.core.accountant.PrivacyAccountant`).
    """

    def __init__(self, backend: Backend, analyst: str | None = None):
        self._backend = backend
        self._analyst = str(analyst) if analyst else None

    # ------------------------------------------------------------------
    # Constructors, one per substrate
    # ------------------------------------------------------------------
    @classmethod
    def in_process(cls, db, *, analyst=None, **kwargs) -> "OsdpClient":
        """A client over the caller's own process (plain columnar db)."""
        return cls(InProcessBackend(db, **kwargs), analyst=analyst)

    @classmethod
    def sharded(cls, db, *, analyst=None, **kwargs) -> "OsdpClient":
        """A client over the sharded engine (``workers=True`` for the
        shard-resident process pool with failover)."""
        return cls(ShardedBackend(db, **kwargs), analyst=analyst)

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        timeout: float | None = None,
        *,
        analyst=None,
        **kwargs,
    ) -> "OsdpClient":
        """A client over a live :class:`repro.service.rpc.RpcServer`.

        Extra keywords reach :class:`RemoteBackend` — e.g.
        ``retry=RetryPolicy(...)`` for transparent resend-with-
        idempotency after transport failures.  ``analyst`` is passed to
        the backend too, so even ops built outside this client (raw
        backend calls) carry the credential.
        """
        return cls(
            RemoteBackend(
                host, port, timeout=timeout, analyst=analyst, **kwargs
            ),
            analyst=analyst,
        )

    @classmethod
    def cluster(cls, endpoints, *, analyst=None, **kwargs) -> "OsdpClient":
        """A client over a replicated endpoint fleet (read path only).

        ``endpoints`` is a sequence of
        :class:`repro.api.cluster.ClusterEndpoint`; keywords reach
        :class:`~repro.api.cluster.ClusterBackend` (``accountant=``,
        ``retry=``, ``timeout=``, ...).  Noise is sampled once
        at this coordinator, so responses are bit-identical to a
        single server holding all the shards.
        """
        from repro.api.cluster import ClusterBackend

        return cls(ClusterBackend(endpoints, **kwargs), analyst=analyst)

    @property
    def backend(self) -> Backend:
        return self._backend

    # ------------------------------------------------------------------
    # The release surface
    # ------------------------------------------------------------------
    def release(
        self,
        request: ReleaseRequest | None = None,
        *,
        mechanism: str | None = None,
        epsilon: float | None = None,
        binning=None,
        policy=None,
        n_trials: int = 1,
        seed: int | None = None,
        label: str = "",
        analyst: str = "",
    ) -> ReleaseResponse:
        """Serve one release request.

        Pass a ready :class:`ReleaseRequest`, or its fields as keywords
        (``binning``/``policy`` may be live objects or wire specs).
        """
        if request is None:
            if mechanism is None or epsilon is None or binning is None:
                raise ValueError(
                    "pass a ReleaseRequest or at least mechanism, epsilon "
                    "and binning"
                )
            request = ReleaseRequest(
                mechanism=mechanism,
                epsilon=epsilon,
                binning=binning,
                policy=policy,
                n_trials=n_trials,
                seed=seed,
                label=label,
                analyst=analyst,
            )
        elif (
            mechanism is not None
            or epsilon is not None
            or binning is not None
            or policy is not None
            or n_trials != 1
            or seed is not None
            or label != ""
            or analyst != ""
        ):
            # Every keyword must be rejected, not just the required
            # trio — silently ignoring e.g. seed= next to a request
            # would hand back a non-reproducible release.
            raise ValueError(
                "pass either a ReleaseRequest or keyword fields, not both"
            )
        return self._backend.handle(self._stamp(request))

    def release_batch(
        self, requests: Sequence[ReleaseRequest]
    ) -> list[ReleaseResponse]:
        """Serve a traffic batch in order (see ``ReleaseServer.handle_batch``);
        a mid-batch budget overrun raises
        :class:`repro.service.server.BatchBudgetExceededError` carrying
        the already-charged prefix — on every backend, including over a
        socket."""
        return self._backend.handle_batch(
            [self._stamp(r) for r in requests]
        )

    def _stamp(self, request: ReleaseRequest) -> ReleaseRequest:
        """Fill in this client's analyst on requests that carry none."""
        if self._analyst is None or request.analyst:
            return request
        return dataclasses.replace(request, analyst=self._analyst)

    def true_histogram(self, binning) -> np.ndarray:
        """The exact (non-private) histogram — the curator's audit path."""
        return self._backend.true_histogram(binning)

    def budget(self) -> dict | None:
        """The backend's full ledger view (None when unmetered).

        The view carries ``total``/``spent``/``remaining``, per-entry
        ``label``/``epsilon``/``policy``/``analyst`` rows, and any
        per-analyst ``quotas`` — see
        :meth:`repro.core.accountant.PrivacyAccountant.view`.
        """
        getter = getattr(self._backend, "budget", None)
        if getter is None:
            return None
        return getter()

    # ------------------------------------------------------------------
    # Live data
    # ------------------------------------------------------------------
    def append_records(self, records) -> int:
        """Ingest new records; returns the tail shard index."""
        return self._backend.append_records(records)

    def expire_prefix(self, n_records: int) -> list[int]:
        """Drop the ``n_records`` oldest records; returns touched shards."""
        return self._backend.expire_prefix(n_records)

    def open_stream(self, **kwargs) -> "StreamingPipeline":
        """The streaming ingestion tier over this client.

        Returns a :class:`repro.ingest.pipeline.StreamingPipeline`:
        events group-commit through the buffer, a sliding ``window``
        drives retention, and a ``release`` schedule publishes
        periodic private histograms — see that module for keywords.
        The pipeline borrows this client; closing the pipeline flushes
        but does not close the client.
        """
        from repro.ingest.pipeline import StreamingPipeline

        return StreamingPipeline(self, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._backend.close()

    def __enter__(self) -> "OsdpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
