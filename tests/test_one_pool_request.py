"""One question for a worker pool: each shard's ``(x, x_ns)`` count pair.

A shard worker answers ``hist_counts`` and the ops that keep its shard
in step with the parent (startup, writes, respawn, stats), nothing
else.  Its columns reach it one way, as shared-memory segments: no op
ships a pickled shard or chunk, and no signature offers a transport
knob (``shm``, ``mp_context``).  ``ShardedColumnarDatabase.shard_counts`` is the only caller of
``map_resident``; every other sharded operation runs in the parent
through ``map_shards``, which never looks at the executor.  Policies and
binnings know nothing of shards: no ``__init_subclass__`` rewrites
``evaluate_batch`` and no ``_shard_aware*`` wrapper dispatches on a
sharded bundle.  These checks read the source, so a second request
kind or a dispatch grafted back onto the policy algebra fails here
before any behaviour test notices.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.core.policy import Policy

SRC = Path(repro.__file__).parent
WORKER_OPS = {
    "shard_shm",
    "append_shm",
    "extend_shm",
    "expire",
    "hist_counts",
    "cache_stats",
    "stop",
}
NO_SHARD_DISPATCH = (Path("core/policy.py"), Path("queries/histogram.py"))
TRANSPORT_KNOBS = {"shm", "mp_context"}


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _method(source: str, cls: str, name: str) -> ast.FunctionDef:
    tree = ast.parse(source)
    owner = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == cls
    )
    return _function(owner, name)


def _parameters(function: ast.FunctionDef) -> list[str]:
    """Every parameter name but ``self``, in declaration order."""
    args = function.args
    every = args.posonlyargs + args.args + args.kwonlyargs
    every += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in every if a.arg != "self"]


def _options(function: ast.FunctionDef, parser: str) -> set[str]:
    """The option strings ``function`` adds to the parser named ``parser``."""
    return {
        arg.value
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == parser
        for arg in node.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    }


def _worker_ops(source: str) -> set[str]:
    """The op names ``_worker_main`` compares ``op`` against."""
    return {
        node.comparators[0].value
        for node in ast.walk(_function(ast.parse(source), "_worker_main"))
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == "op"
        and isinstance(node.comparators[0], ast.Constant)
    }


def _shard_dispatch(source: str) -> list[str]:
    """Every definition of, or reference to, ``__init_subclass__`` or a
    ``_shard_aware*`` name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name == "__init_subclass__" or name.startswith("_shard_aware"):
            found.append(f"{name}:{node.lineno}")
    return found


def _map_resident_calls(source: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_resident"
    ]


def _reads_executor(function: ast.FunctionDef) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr in ("_executor", "executor")
        for node in ast.walk(function)
    )


def test_the_guards_see_what_they_guard():
    worker = (
        "def _worker_main(conn):\n"
        "    op = conn.recv()\n"
        "    if op == 'stop':\n"
        "        return\n"
        "    elif op == 'call':\n"
        "        pass\n"
    )
    assert _worker_ops(worker) == {"stop", "call"}
    assert _shard_dispatch(
        "class P:\n    def __init_subclass__(cls):\n        pass\n"
    ) == ["__init_subclass__:2"]
    assert _shard_dispatch("@_shard_aware\ndef f():\n    pass\n") == [
        "_shard_aware:1"
    ]
    assert _map_resident_calls("pool.map_resident(s, q, p)\n") == [1]
    pool = "class P:\n    def __init__(self, shards, *, shm=None):\n        pass\n"
    assert _parameters(_method(pool, "P", "__init__")) == ["shards", "shm"]
    parser = (
        "def build_parser():\n"
        "    p_serve.add_argument('--shm', action='store_true')\n"
        "    other.add_argument('--port')\n"
    )
    assert _options(_function(ast.parse(parser), "build_parser"), "p_serve") == {
        "--shm"
    }
    mapper = _function(
        ast.parse("def map_shards(self, fn):\n    return self._executor\n"),
        "map_shards",
    )
    assert _reads_executor(mapper)


def test_the_worker_answers_exactly_its_ops():
    source = (SRC / "data" / "workers.py").read_text()
    assert _worker_ops(source) == WORKER_OPS


def test_policies_and_binnings_carry_no_shard_dispatch():
    offenders = []
    for relative in NO_SHARD_DISPATCH:
        offenders += [
            f"{relative}:{hit}"
            for hit in _shard_dispatch((SRC / relative).read_text())
        ]
    assert offenders == []
    assert "__init_subclass__" not in vars(Policy)


def test_only_the_sharded_database_asks_the_pool():
    callers = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = _map_resident_calls(path.read_text())
        if lines:
            callers[str(path.relative_to(SRC))] = lines
    assert list(callers) == ["data/sharding.py"]
    assert len(callers["data/sharding.py"]) == 1


def test_map_shards_never_reads_the_executor():
    tree = ast.parse((SRC / "data" / "sharding.py").read_text())
    database = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and node.name == "ShardedColumnarDatabase"
    )
    assert not _reads_executor(_function(database, "map_shards"))


def test_a_pool_takes_only_its_shards():
    workers = (SRC / "data" / "workers.py").read_text()
    assert _parameters(_method(workers, "ShardWorkerPool", "__init__")) == [
        "shards"
    ]
    backends = (SRC / "api" / "backends.py").read_text()
    backend = _parameters(_method(backends, "ShardedBackend", "__init__"))
    assert "workers" in backend
    assert not TRANSPORT_KNOBS & set(backend)


def test_serve_has_no_transport_flag():
    build_parser = _function(
        ast.parse((SRC / "cli.py").read_text()), "build_parser"
    )
    options = _options(build_parser, "p_serve")
    assert "--workers" in options
    assert not {"--shm", "--no-shm", "--mp-context"} & options
