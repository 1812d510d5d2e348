"""One retry loop for the remote tier, one failure state per endpoint.

Every backoff in :mod:`repro.api` goes through
:func:`repro.api.resilience.call_with_retries`: the TCP connect,
``RemoteBackend``'s exchange resends, ``ClusterBackend``'s failover
sweeps and commit resends hand it one attempt each and never sleep on
their own.  An endpoint is healthy or failing, judged by the calls the
coordinator makes anyway: no circuit breaker, no probe thread, and no
knob on ``ClusterBackend`` to tune either.  These checks read the
source, so a second backoff loop or a background thread grafted back
onto the remote tier fails here before any fault test notices.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import repro
from repro.api import resilience
from repro.api.cluster import ClusterBackend

SRC = Path(repro.__file__).parent

#: The functions allowed to compute a backoff.  The fleet supervisor
#: schedules a restart from its monitor thread's poll loop; it retries
#: no call.
DELAY_CALLERS = {
    ("api/resilience.py", "call_with_retries"),
    ("service/fleet.py", "backoff"),
}


def _calls_in_functions(source: str, names: set[str]) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of each call to a ``names`` member,
    whether called bare (``sleep(x)``) or as an attribute (``a.sleep(x)``).
    """
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in names:
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def _api_sources():
    for path in sorted((SRC / "api").glob("*.py")):
        yield str(path.relative_to(SRC)), path.read_text()


def test_the_guards_see_what_they_guard():
    source = (
        "import time\n"
        "def loop(policy):\n"
        "    time.sleep(policy.delay(0))\n"
        "    def inner():\n"
        "        sleep(1)\n"
    )
    assert _calls_in_functions(source, {"delay"}) == [("loop", 3)]
    assert _calls_in_functions(source, {"sleep", "_sleep"}) == [
        ("loop", 3),
        ("inner", 5),
    ]
    assert _calls_in_functions("threading.Thread(target=f)\n", {"Thread"}) == [
        ("<module>", 1)
    ]


def test_only_call_with_retries_computes_a_backoff():
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = str(path.relative_to(SRC))
        callers |= {
            (relative, function)
            for function, _ in _calls_in_functions(path.read_text(), {"delay"})
        }
    assert callers == DELAY_CALLERS


def test_the_remote_tier_sleeps_only_inside_call_with_retries():
    sleepers = {
        (relative, function)
        for relative, source in _api_sources()
        for function, _ in _calls_in_functions(source, {"sleep", "_sleep"})
    }
    assert sleepers == {("api/resilience.py", "call_with_retries")}


def test_the_remote_tier_starts_no_thread():
    starters = [
        (relative, line)
        for relative, source in _api_sources()
        for _, line in _calls_in_functions(source, {"Thread", "Timer"})
    ]
    assert starters == []


def test_an_endpoint_has_one_failure_state_and_no_knobs():
    assert not hasattr(resilience, "CircuitBreaker")
    assert list(inspect.signature(resilience.HealthMonitor).parameters) == [
        "keys"
    ]
    assert list(inspect.signature(ClusterBackend).parameters) == [
        "endpoints",
        "registry",
        "accountant",
        "retry",
        "timeout",
        "rng",
        "clock",
    ]
