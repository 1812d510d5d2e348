"""The release-service benchmark (see bench/README.md and BENCHMARK.json).

Self-contained: nothing under ``src/`` imports this package, and it
reaches the program only through its public entry points — the
``python -m repro.cli serve`` subprocess, ``FleetSupervisor``,
``OsdpClient`` and the layers' public callables.
"""
