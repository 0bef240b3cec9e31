"""Structural lints: each concept has one implementation.

Every row names a regex, the paths it scans, and how many matching
lines may remain.  A hit is rendered ``path:method:text`` (``method``
is the enclosing module-level or four-space-indented ``def``, empty
from a module-level ``class`` line until its first method),
and a row's ``exempt`` regex drops the hits it matches, the way
``grep -v`` would.  A row with ``files`` instead pins the exact set of
files that match.
"""

import re
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
METHOD = re.compile(r"^(?:class |(?:    )?(?:async )?def (\w+)\()")


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
                    method = defined[1] or ""
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
    # A burst of RPCs is one write, whether the link is idle or the
    # burst waited for its lock, and a connection's replies leave
    # through its outbox.
    "one-link-write": Lint(
        r"\.write\(", ("src/repro/serve/link.py",), count=range(1, 2)
    ),
    # A step's node or site RPCs are one ``link_rpcs`` call, not a
    # gather of per-link coroutines.
    "one-fan-out": Lint(
        r"asyncio\.gather\(",
        ("src/repro/cluster/coordinator.py", "src/repro/sites/gateway.py"),
    ),
    # One repair decision: the scan parses the block listings once into
    # the holder table, and the scan's margin and the wave's plan both
    # come from HolderTable.classify; no key-string holder map beside it.
    "one-holder-parse": Lint(
        r"parse_block_key\(|holders(\.get\(|\[)",
        ("src/repro/cluster",),
        exempt=r"^src/repro/cluster/scheduler\.py:__init__: +name, index, node = ",
    ),
    "one-repair-decision": Lint(
        r"\.classify\(",
        ("src/repro/cluster",),
        exempt=r"^src/repro/cluster/scheduler\.py:_stripe_work:"
        r"|^src/repro/cluster/coordinator\.py:_repair_stripes:",
    ),
    "no-reply-write-lock": Lint(
        r"asyncio\.Lock\(|write_lock", ("src/repro/serve/lineserver.py",)
    ),
    # An undecodable stripe is typed once: read_stripe turns every
    # DecodeFailure into loss or an outage.  The gateway's post-decode
    # checksum check is not a decode verdict.
    "one-stripe-verdict": Lint(
        r"DataLossError\(",
        ("src/repro",),
        exempt=r"^src/repro/storage/archive\.py:read_stripe:"
        r"|:class DataLossError\("
        r"|^src/repro/sites/gateway\.py:_coupled_read:",
    ),
    # Every tier decodes a fetched stripe through read_stripe; the
    # repair wave counts what it cannot rebuild instead of typing it.
    "one-stripe-decode": Lint(
        r"\.decode_blocks\(|\.recover\(",
        (
            "src/repro/storage",
            "src/repro/serve",
            "src/repro/cluster",
            "src/repro/sites",
        ),
        exempt=r"^src/repro/storage/archive\.py:read_stripe:"
        r"|^src/repro/cluster/coordinator\.py:_repair_stripes:",
    ),
    # One argument contract: repro._checks holds the only count and
    # seconds checks.  Wire coercion (a quoted field's ProtocolError),
    # the CLI's flag-named UsageError and graph structure errors answer
    # differently.
    "one-argument-contract": Lint(
        r"isinstance\([\w.]+, bool\)|operator\.index\(|numbers\.Integral"
        r"|must be (an? )?(positive|non-negative|>= ?\d)",
        ("src/repro",),
        exempt=r"^src/repro/(_checks|cli)\.py:"
        r"|^src/repro/serve/protocol\.py:(_is_length:|_coerce:|\w*:\s*\"')"
        r"|raise GraphValidationError\(",
    ),
    # Protocol v6: one binary codec, one read path.  The speakers read
    # an envelope and one exact body, never a JSON line ...
    "no-json-line-read": Lint(
        r"import json|readline\(",
        (
            "src/repro/serve/link.py",
            "src/repro/serve/lineserver.py",
            "src/repro/serve/client.py",
        ),
    ),
    "no-line-framing": Lint(
        r"payload_size|_PAYLOAD_MARK|MAX_LINE_BYTES|decode_frame", ("src",)
    ),
    # ... and protocol.py has one encoder and one parser per direction
    # (encode_request / parse_request, encode_frame / parse_response).
    "one-codec-per-direction": Lint(
        r"^def ((en|de)code|parse)_\w*\(",
        ("src/repro/serve", "src/repro/cluster", "src/repro/sites"),
        count=range(4, 5),
    ),
    # A burst's blocks travel as one run (their sizes beside one stretch
    # of payload), never as a key -> bytes map ...
    "no-block-map-on-the-wire": Lint(
        r"dict\[str, bytes\]", ("src/repro/serve/protocol.py",)
    ),
    # ... and every fetched run lands in the stripe matrix through
    # core.codec.stripe_rows: no tier joins fetched blocks itself.  The
    # joins left are an object's stripes and the WAL's records.
    "one-run-landing": Lint(
        r'b""\.join\(',
        ("src/repro/cluster", "src/repro/sites"),
        exempt=r"^src/repro/cluster/coordinator\.py:_get:"
        r"|^src/repro/sites/gateway\.py:_coupled_read:"
        r"|^src/repro/cluster/wal\.py:append:",
    ),
    # Frames are dispatched in the transport callback: no stream reads
    # a frame on either side of a connection ...
    "no-stream-io": Lint(
        r"StreamReader|start_server|open_connection|readexactly",
        ("src/repro/serve", "src/repro/cluster"),
    ),
    # ... and one FrameSplitter cuts frames for the line server and the
    # link alike.
    "one-frame-splitter": Lint(
        r"body_size\(",
        ("src/repro",),
        exempt=r"^src/repro/serve/(protocol|client)\.py:"
        r"|^src/repro/serve/lineserver\.py:feed:",
    ),
    "both-speakers-split-alike": Lint(
        r"FrameSplitter\(\)", ("src/repro",), count=range(2, 3)
    ),
    # One MTTDL: the birth–death chain over a failure curve.  The
    # Markov closed forms and the simulator's exponential read-out that
    # disagreed with it are gone.
    "one-mttdl": Lint(
        r"def mttdl|mttdl_raid|mttdl_mirrored|mttdl_estimate",
        ("src", "benchmarks", "docs", "examples"),
        files=frozenset({"src/repro/reliability/model.py"}),
    ),
    # Spans stay in the process that minted them: only the Monte Carlo
    # pool ships a worker's spans home (a TimeSeriesStore's ``ingest``
    # is another method) ...
    "spans-stay-home": Lint(
        r"\.(ingest|export)\(",
        ("src",),
        exempt=r"^src/repro/sim/montecarlo\.py:|store\.ingest\(",
    ),
    # ... no frame carries spans, and metrics cross the wire only as a
    # ``metrics.snapshot``.
    "no-spans-or-metrics-text-on-the-wire": Lint(
        r"SPANS|envelope\.spans|MetricsRequest|MetricsResponse", ("src",)
    ),
    # One failure path for pooled sweeps: a crashed or hung worker's
    # cells finish in-process, so nothing is re-dispatched, abandoned
    # or interpolated over.
    "one-sweep-failure-path": Lint(
        r"max_retries|uncovered_ks|fully_covered|cell_abandoned|coverage=",
        ("src",),
    ),
    # Fleet telemetry keeps one store: the run's whole timeline, spaced
    # by its own timestamps and judged by the built-in objectives, so
    # the live alerts are the replay of the file.  No ring, no guessed
    # interval, no spec file.
    "one-telemetry-store": Lint(
        r"retention|resolution=|SloSpec|scrape[_-]interval|slo[_-]spec|\"--spec\"",
        ("src",),
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
