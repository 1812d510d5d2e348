"""Price of budget durability: fsync'd charges vs in-memory charges.

The durable accountant fsyncs every charge journal frame before the
release returns (the fsync-before-ack contract in
:mod:`repro.service.budget`).  This bench measures charges/second for
the in-memory :class:`~repro.core.accountant.PrivacyAccountant`
against the :class:`~repro.service.budget.DurableAccountant` on the
same charge stream, and records the slowdown factor — the dollar cost
of crash-safety operators are buying.

The assertion is correctness-only (both ledgers identical); the rates
are a record.  The bounded measurement of the durable charge is
``bench/``'s ``budget.durable_charge_us`` probe and the ``stream_mixed``
workload.
"""

from __future__ import annotations

import tempfile
import time

from conftest import write_result

from repro.core.accountant import PrivacyAccountant
from repro.core.policy import OptInPolicy
from repro.evaluation.runner import format_table
from repro.service.budget import DurableAccountant

N_CHARGES = 400
TOTAL = 1e9


def _charge_stream(accountant) -> float:
    policy = OptInPolicy()
    accountant.charge(policy, 0.001, label="warm")  # open files, warm caches
    start = time.perf_counter()
    for i in range(N_CHARGES):
        accountant.charge(policy, 0.001, label=f"c{i}", analyst="bench")
    return time.perf_counter() - start


def _measure() -> tuple[float, float, int, int]:
    memory = PrivacyAccountant(total_epsilon=TOTAL)
    memory_s = _charge_stream(memory)
    with tempfile.TemporaryDirectory() as directory:
        with DurableAccountant(directory, total_epsilon=TOTAL) as durable:
            durable_s = _charge_stream(durable)
            n_durable = len(durable.ledger)
    return memory_s, durable_s, len(memory.ledger), n_durable


def _report(memory_s: float, durable_s: float) -> str:
    memory_rate = N_CHARGES / memory_s
    durable_rate = N_CHARGES / durable_s
    table = format_table(
        ["accountant", "charges_per_sec", "us_per_charge", "slowdown"],
        [
            [
                "in_memory",
                f"{memory_rate:.0f}",
                f"{memory_s / N_CHARGES * 1e6:.1f}",
                "1.00",
            ],
            [
                "durable_fsync",
                f"{durable_rate:.0f}",
                f"{durable_s / N_CHARGES * 1e6:.1f}",
                f"{durable_s / memory_s:.2f}",
            ],
        ],
    )
    write_result("budget_overhead", table)
    return table


def test_durable_ledger_matches_in_memory_ledger():
    memory_s, durable_s, n_memory, n_durable = _measure()
    _report(memory_s, durable_s)
    assert n_memory == n_durable == N_CHARGES + 1
