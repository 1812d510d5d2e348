"""One accountant: a durable ledger is a PrivacyAccountant with a sink.

:class:`repro.service.budget.DurableAccountant` adds construction with
recovery, the journal, its sink and ``close``; the check, the install,
the totals and every read are ``PrivacyAccountant``'s own, so the two
cannot drift apart.  The pin is by AST: the subclass defines no name
its base defines, except ``__init__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.core.accountant import PrivacyAccountant
from repro.core.policy import OptInPolicy
from repro.service.budget import DurableAccountant

import repro

SRC = Path(repro.__file__).parent


def _class_names(path: Path, cls: str) -> tuple[set[str], list[str]]:
    """The names a class body defines (methods, properties, class
    attributes) and the names of its bases."""
    tree = ast.parse(path.read_text())
    (node,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls
    ]
    names = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    return names, [ast.unparse(base) for base in node.bases]


def test_the_durable_accountant_mirrors_nothing_of_the_accountant():
    base, _ = _class_names(SRC / "core" / "accountant.py", "PrivacyAccountant")
    durable, bases = _class_names(SRC / "service" / "budget.py", "DurableAccountant")
    assert bases == ["PrivacyAccountant"]
    assert {"charge", "spent", "remaining", "view", "_check_charge"} <= base
    assert durable & base <= {"__init__"}
    assert "__init__" in durable and "charge" not in durable


def test_a_durable_charge_runs_the_accountants_own_charge(tmp_path):
    assert DurableAccountant.charge is PrivacyAccountant.charge
    with DurableAccountant(tmp_path, total_epsilon=1.0) as acct:
        assert isinstance(acct, PrivacyAccountant)
        acct.charge(OptInPolicy(), 0.25, label="a")
        assert acct.journal.last_seq == 1
        assert acct.for_analyst("alice")._accountant is acct
