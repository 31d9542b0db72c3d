"""Count stability of the traced run.

Run with ``python3 -m pytest bench/test_counts.py`` from the repository
root.  One reduced traced pass per workload, made twice in this process,
must give identical count metrics and no failed op.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNT_SUFFIXES = (".calls", ".iterations", ".per_hypergraph", ".eliminations_per_classify")


def traced_pass(name: str, directory: Path) -> tuple[dict, run.Client]:
    cli = run._import_program()
    workload = workloads.build(name, seed=7, directory=directory, reduced=True)
    tracer = Tracer()
    client = run.Client(cli, tracer)
    tracer.install()
    try:
        client.run_pass(workload.ops)
    finally:
        tracer.uninstall()
    return tracer.layer_metrics(passes=1), client


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_nothing_fails(name: str, tmp_path: Path) -> None:
    first, client_a = traced_pass(name, tmp_path / "a")
    second, client_b = traced_pass(name, tmp_path / "b")
    counts = sorted(m for m in first if m.endswith(COUNT_SUFFIXES))
    assert counts
    assert {m: first[m]["value"] for m in counts} == {m: second[m]["value"] for m in counts}
    assert client_a.attempted > 0 and client_a.failed == 0, client_a.failures
    assert client_b.failed == 0, client_b.failures
