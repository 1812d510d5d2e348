"""One release loop for a server and a cluster, and one ε rule.

:class:`repro.service.server.ReleaseLoop` is the only place a request
is checked, a mechanism is run against the accountant and a batch's
charged prefix is wrapped into its error.  ``ReleaseServer`` and
``ClusterBackend`` differ only in their histogram source, so a cluster
release equals a single server's because the same code produced it,
not because two copies agree.  The loop holds no lock, so two threads
releasing through one cluster fan out at the same time.

Every ε gate — the loop's check, both accountants' ``charge`` and the
mechanisms' constructor — refuses an ε that is not finite and
positive.  ``epsilon <= 0`` alone passes NaN, and one NaN charge makes
``spent`` NaN, after which no budget check ever fails again.
"""

from __future__ import annotations

import ast
import math
import threading
from pathlib import Path

import pytest

from faults import loopback_skip_reason, make_db
from repro.api import ClusterBackend, ClusterEndpoint, RemoteBackend
from repro.core.accountant import BudgetExceededError, PrivacyAccountant
from repro.core.policy import AllSensitivePolicy
from repro.mechanisms.laplace import LaplaceHistogram
from repro.queries.histogram import IntegerBinning
from repro.service.budget import ChargeJournal, DurableAccountant
from repro.service.rpc import RpcServer
from repro.service.server import ReleaseLoop, ReleaseRequest, ReleaseServer

import repro

SRC = Path(repro.__file__).parent

_SKIP_REASON = loopback_skip_reason()
sockets = pytest.mark.skipif(_SKIP_REASON is not None, reason=str(_SKIP_REASON))

BINNING = IntegerBinning("age", 0, 100, 10).to_spec()
POLICY = {"kind": "opt_in", "attr": "opt_in"}


def _request(epsilon: float, mechanism: str = "laplace") -> ReleaseRequest:
    return ReleaseRequest(mechanism, epsilon, BINNING, POLICY, seed=3)


def _calls(source: str, names: set[str]) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of each call to a ``names`` member,
    bare (``f(x)``) or as an attribute (``a.f(x)``)."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in names:
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


# ----------------------------------------------------------------------
# One loop
# ----------------------------------------------------------------------


def test_the_guard_sees_what_it_guards():
    source = (
        "def f(m):\n"
        "    m.run(1)\n"
        "    raise BatchBudgetExceededError('x', [], None)\n"
    )
    assert _calls(source, {"run", "BatchBudgetExceededError"}) == [
        ("f", 2),
        ("f", 3),
    ]


def test_a_mechanism_runs_and_a_prefix_is_wrapped_only_in_the_server():
    """``.run(`` and ``BatchBudgetExceededError(`` appear in
    ``service/server.py`` only; the wire decoder that rebuilds an error
    a server shipped is the one other constructor."""
    allowed = {
        ("service/server.py", "_release"),
        ("service/server.py", "_batch_error"),
        ("api/wire.py", "exception_from_wire"),
    }
    found = set()
    for package in ("service", "api"):
        for path in sorted((SRC / package).glob("*.py")):
            rel = str(path.relative_to(SRC))
            for function, _ in _calls(
                path.read_text(), {"run", "BatchBudgetExceededError"}
            ):
                found.add((rel, function))
    assert found == allowed


def test_the_cluster_serves_through_the_servers_loop():
    for name in ("handle", "handle_batch", "_release", "_check"):
        assert getattr(ClusterBackend, name) is getattr(ReleaseLoop, name)
        assert getattr(ReleaseServer, name) is getattr(ReleaseLoop, name)
    for gone in ("_handle_one", "_merged_histogram"):
        assert not hasattr(ClusterBackend, gone)


@pytest.fixture
def endpoint():
    """One in-process endpoint serving the whole demo table."""
    with RpcServer(ReleaseServer(make_db(400, 0).shard(2))).start() as rpc:
        yield ClusterEndpoint(*rpc.address, shard_range="all", name="all")


@sockets
class TestClusterLoop:
    def test_an_unknown_mechanism_costs_no_fan_out(self, endpoint):
        with ClusterBackend([endpoint]) as backend:
            with pytest.raises(KeyError, match="unknown mechanism"):
                backend.handle(_request(0.5, mechanism="no_such_mechanism"))
            assert backend.cluster_stats()["range_calls"] == 0
            assert backend.cluster_stats()["requests"] == 0

    def test_two_threads_fan_out_at_once(self, endpoint, monkeypatch):
        """Both threads must be inside ``histogram_counts`` together: a
        loop that locked around the fan-out breaks the barrier."""
        barrier = threading.Barrier(2, timeout=10)
        original = RemoteBackend.histogram_counts

        def meet_then_count(self, binning, policy):
            barrier.wait()
            return original(self, binning, policy)

        monkeypatch.setattr(RemoteBackend, "histogram_counts", meet_then_count)
        results, errors = [], []

        def release():
            try:
                results.append(backend.handle(_request(0.5)))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        with ClusterBackend([endpoint]) as backend:
            threads = [threading.Thread(target=release) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert errors == []
            assert len(results) == 2
            assert backend.cluster_stats()["range_calls"] == 2


def test_a_server_checks_a_request_before_its_histogram():
    server = ReleaseServer(make_db(400, 0).shard(2))
    with pytest.raises(KeyError, match="unknown mechanism"):
        server.handle(_request(0.5, mechanism="no_such_mechanism"))
    assert server.stats.hist_misses == 0
    assert server.stats.requests == 0


# ----------------------------------------------------------------------
# One ε rule
# ----------------------------------------------------------------------


BAD_EPSILONS = [math.nan, math.inf, -math.inf, 0.0, -1.0]


@pytest.mark.parametrize("epsilon", BAD_EPSILONS)
def test_every_gate_refuses_a_non_finite_or_non_positive_epsilon(
    epsilon, tmp_path
):
    accountant = PrivacyAccountant(1.0)
    with pytest.raises(ValueError, match="finite and positive"):
        accountant.charge(AllSensitivePolicy(), epsilon)
    assert accountant.spent == 0.0 and not accountant.ledger
    with pytest.raises(ValueError, match="finite and positive"):
        LaplaceHistogram(epsilon)
    with DurableAccountant(tmp_path, total_epsilon=1.0) as durable:
        with pytest.raises(ValueError, match="finite and positive"):
            durable.charge(AllSensitivePolicy(), epsilon)
        assert durable.spent == 0.0
    with DurableAccountant(tmp_path, total_epsilon=1.0) as reopened:
        assert not reopened.ledger and reopened.spent == 0.0


def _server(accountant) -> ReleaseServer:
    return ReleaseServer(make_db(400, 0).shard(2), accountant=accountant)


class _InProcess:
    def __init__(self, tmp_path):
        self.accountant = PrivacyAccountant(1.0)
        self.backend = _server(self.accountant)

    def close(self):
        pass


class _Rpc:
    def __init__(self, tmp_path, accountant=None):
        self.accountant = accountant or PrivacyAccountant(1.0)
        self.rpc = RpcServer(_server(self.accountant)).start()
        self.backend = RemoteBackend(*self.rpc.address, timeout=10.0)

    def close(self):
        self.backend.close()
        self.rpc.close()


class _Durable(_Rpc):
    def __init__(self, tmp_path):
        super().__init__(tmp_path, DurableAccountant(tmp_path, 1.0))
        self.journal = tmp_path / ChargeJournal.LOG_NAME

    def close(self):
        super().close()
        self.accountant.close()


class _Cluster:
    def __init__(self, tmp_path):
        self.rpc = RpcServer(_server(None)).start()
        self.accountant = PrivacyAccountant(1.0)
        self.backend = ClusterBackend(
            [ClusterEndpoint(*self.rpc.address, shard_range="all")],
            accountant=self.accountant,
        )

    def close(self):
        self.backend.close()
        self.rpc.close()


@pytest.fixture(
    params=[
        _InProcess,
        pytest.param(_Rpc, marks=sockets),
        pytest.param(_Durable, marks=sockets),
        pytest.param(_Cluster, marks=sockets),
    ],
    ids=["in_process", "rpc", "durable", "cluster"],
)
def deployment(request, tmp_path):
    built = request.param(tmp_path)
    try:
        yield built
    finally:
        built.close()


def _size(path) -> int | None:
    """A journal's bytes (0 before its first write); None: no journal."""
    if path is None:
        return None
    return path.stat().st_size if path.exists() else 0


class TestNanSpendsNothing:
    def test_a_nan_release_is_refused_and_the_budget_still_binds(
        self, deployment
    ):
        journal = getattr(deployment, "journal", None)
        journal_bytes = _size(journal)
        with pytest.raises(ValueError, match="finite and positive"):
            deployment.backend.handle(_request(math.nan))
        assert deployment.accountant.spent == 0.0
        assert _size(journal) == journal_bytes
        with pytest.raises(BudgetExceededError):
            deployment.backend.handle(_request(50.0))
        assert deployment.accountant.spent == 0.0

    def test_a_nan_in_a_batch_charges_no_request(self, deployment):
        with pytest.raises(ValueError, match="finite and positive"):
            deployment.backend.handle_batch(
                [_request(0.25), _request(math.inf)]
            )
        assert deployment.accountant.spent == 0.0
