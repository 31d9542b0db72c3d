"""The benchmark's tracer must find every package function it wraps.

``bench/tracer.py`` records a vanished name as absent and drops its
metrics instead of failing, so a rename or deletion in the package would
otherwise go unnoticed until a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("oddtrans_bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [target for target in tracer.TRACED if tracer._resolve(target) is None]
    assert missing == []
