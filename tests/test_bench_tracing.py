"""The benchmark tracer's targets exist: renaming a traced function fails here
instead of silently dropping its layer from traced benchmark runs."""
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    # Executed from its source text, so no bytecode cache is written under bench/.
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_target_exists():
    recorder = _load_tracing().Recorder()
    plan = recorder._build_plan()
    assert recorder.missing == []
    assert plan
