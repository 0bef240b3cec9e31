"""Structural lints: each concept has one implementation.

Every row names a regex, the paths it scans, and how many matching
lines may remain.  A hit is rendered ``path:method:text`` (``method``
is the enclosing four-space-indented ``def``, empty at module level),
and a row's ``exempt`` regex drops the hits it matches, the way
``grep -v`` would.  A row with ``files`` instead pins the exact set of
files that match.
"""

import re
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
METHOD = re.compile(r"^    (?:async )?def (\w+)\(")


class Lint(NamedTuple):
    pattern: str
    scope: tuple[str, ...]
    exempt: str = ""
    count: range = range(1)  # matching lines allowed after exemptions
    glob: str = "*"
    files: frozenset[str] | None = None


def hits(lint: Lint) -> list[str]:
    pattern = re.compile(lint.pattern)
    found = []
    for scope in lint.scope:
        base = ROOT / scope
        paths = [base] if base.is_file() else sorted(base.rglob(lint.glob))
        for path in paths:
            if "__pycache__" in path.parts or not path.is_file():
                continue
            try:
                lines = path.read_text(encoding="utf-8").splitlines()
            except UnicodeDecodeError:
                continue
            rel, method = path.relative_to(ROOT).as_posix(), ""
            for line in lines:
                if defined := METHOD.match(line):
                    method = defined[1]
                if pattern.search(line):
                    found.append(f"{rel}:{method}:{line}")
    return found


LINTS = {
    # A federation is one ErasureGraph: no relation-matrix side door.
    "one-federation-graph": Lint(
        r"from_matrix|federated_batch_decoder", ("src", "benchmarks", "examples")
    ),
    # Recovery paths are the only paths: one XOR loop, no re-encode
    # repair, one metadata writer.
    "one-xor-loop": Lint(r"np.bitwise_xor.reduce", ("src/repro/serve",)),
    "no-re-encode-repair": Lint(r"encode_blocks\(", ("src/repro/storage",)),
    "one-metadata-writer": Lint(
        r"self\.manifests\[[^]]*\] *=[^=]",
        ("src/repro/cluster/coordinator.py",),
        exempt=r"^[^:]*:(_apply_record|_restore_state):",
    ),
    "no-shared-memory-pool": Lint(r"shared_memory", ("src",)),
    # One process pool, the Monte Carlo fan-out's; the service decodes
    # in place.
    "one-process-pool": Lint(r"ProcessPoolExecutor\(", ("src/repro",), count=range(2)),
    "one-pool-recovery": Lint(
        r"BrokenProcessPool", ("src/repro",), exempt=r"^src/repro/sim/montecarlo\.py:"
    ),
    "one-stopping-search": Lint(r"_StoppingSearch|^\s+def dfs\(", ("src/repro/core",)),
    "one-backoff-loop": Lint(
        r"retry\.wait\(|\.delays\(\)|asyncio\.sleep\(delays",
        ("src/repro",),
        exempt=r"^src/repro/resilience/retry\.py:",
    ),
    # Every AFR draw and rate conversion lives in reliability/hazards.py.
    "one-failure-process": Lint(
        r"fail_bernoulli|DeviceHazards|-math\.log1p\(-",
        ("src/repro",),
        exempt=r"^src/repro/reliability/hazards\.py:",
    ),
    # A pool outliving a call is inherited thread-less by every forked
    # sweep worker, which then hangs on its first submit.
    "no-sweep-thread-pool": Lint(
        r"ThreadPoolExecutor", ("src/repro/core", "src/repro/sim")
    ),
    # Mask blocks and the sparse kernel's word ranges both run through
    # lossmasks._fan_out.
    "one-thread-fan-out": Lint(
        r"threading\.Thread\(", ("src/repro/core", "src/repro/sim"), count=range(1, 2)
    ),
    # A wave of stripes is the repair step.
    "one-repair-path": Lint(
        r"def _repair_stripe\(|def _repair_one\(", ("src/repro/cluster",)
    ),
    "one-peeling-fixpoint": Lint(
        r"def _peel\(", ("src/repro/core",), count=range(1, 2)
    ),
    "no-compiled-side-path": Lint(r"numba|REPRO_DECODE_JIT|_plane_kernel", ("src",)),
    # No eager re-export beside lazy_exports; obs.registry is the
    # declared exception.
    "one-export-table": Lint(
        r"^\s*from \.+[A-Za-z_.]* import",
        ("src/repro",),
        exempt=r":from \.+_exports import lazy_exports$"
        r"|^src/repro/obs/__init__\.py::from \.registry import registry( |$)",
        glob="__init__.py",
    ),
    # A burst of RPCs is one write: exchange is exchange_many's one-item
    # case, and a connection's replies leave through its outbox.
    "one-link-write": Lint(
        r"\.write\(", ("src/repro/serve/link.py",), count=range(1, 2)
    ),
    "no-reply-write-lock": Lint(
        r"asyncio\.Lock\(|write_lock", ("src/repro/serve/lineserver.py",)
    ),
    "networkx-behind-graphml": Lint(
        r"import networkx", ("src",), files=frozenset({"src/repro/core/graphml.py"})
    ),
}


@pytest.mark.parametrize("lint", LINTS.values(), ids=LINTS)
def test_one_implementation(lint):
    found = hits(lint)
    if lint.files is not None:
        assert {hit.split(":", 1)[0] for hit in found} == lint.files, found
        return
    rest = [h for h in found if not (lint.exempt and re.search(lint.exempt, h))]
    assert len(rest) in lint.count, rest
