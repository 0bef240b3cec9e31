"""Helpers shared by the experiment benches (importable module form)."""

from __future__ import annotations

import os
from pathlib import Path

BENCH_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "4000"))
RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist a rendered experiment artifact (and echo it)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to benchmarks/results/{name}.txt]")
