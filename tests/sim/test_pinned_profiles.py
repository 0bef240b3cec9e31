"""The reproduction's failure curves, pinned bit for bit.

Each sha256 is over a profile's ``fail_fraction`` bytes, pinned from
the in-order mask generator and the one-cell-per-call kernel.  Every
other schedule the sweep can take must land on the same bytes: mask
blocks drawn on helper threads or in order on one CPU, graph 3's cells
fused into wide calls peeled in serial sweeps or in parallel rounds,
and ``sweep_large``'s cells peeled in two word ranges or one, over the
graph's levels or one collapsed block, split at any ``chunk``.  A
change that moves a digest on purpose updates it here, in one place.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import profile_graph, tornado_catalog_graph, tornado_csr_graph
from repro.core import BitsetBatchDecoder, SparseBitsetDecoder
from repro.obs.trace import Tracer, trace_capture

# name: (sweep, sha256 of its fail_fraction)
PINNED = {
    # Graph 3, 42 cells of 64 words, fused into one kernel call.
    "graph3": (
        dict(samples_per_k=4096, seed=0),
        "d0711945a56a782336dc717f1cdca26789c5ec7e1e5c694e6172707983cdae36",
    ),
    # The library default: each cell is a 16 384-case batch plus a
    # 3 616-case one whose last word has pad lanes, so fused calls
    # carry cells that start mid-word.
    "graph3-default": (
        dict(samples_per_k=20000, seed=0),
        "637b6256a98508d01f9b14c471353f72b284544c0782d76be9fefb430e92c510",
    ),
    # The sweep's bytes as of the index-based mask generators (first
    # pinned by its 16-digit prefix).
    "graph3-seed7": (
        dict(samples_per_k=2000, seed=7),
        "ee1f6cdd4ea80b2364495101363b32f11be7a3bbeb25463eb7bbb8c89471e30f",
    ),
    # sweep_large's cells on tornado_csr_graph(8192, seed=1): 16 384
    # nodes x 32 words per decode, four times the sparse kernel's range
    # floor, so with two or more CPUs decode_packed peels two word
    # ranges, the second on a helper.  k = n/10 and n/4.
    "sparse": (
        dict(ks=[1638, 4096], samples_per_k=2048, seed=1),
        "88ab67dcc089588ba20b9caa29ff6068bcad98a0688de41e6dfd75ec98ebc35a",
    ),
}
DIGESTS = {name: sha for name, (_, sha) in PINNED.items()}
# Rerun on one CPU; the seed-7 sweep takes graph3's code path.
THREADED = ("graph3", "graph3-default", "sparse")


def digest(name, csr=tornado_csr_graph):
    """sha256 of the named pinned profile; ``csr`` builds the graph of
    the sparse one."""
    sweep, _ = PINNED[name]
    graph = csr(8192, seed=1) if name == "sparse" else tornado_catalog_graph(3)
    profile = profile_graph(graph, **sweep)
    return hashlib.sha256(profile.fail_fraction.tobytes()).hexdigest()


@pytest.mark.parametrize("name", DIGESTS)
def test_digest(name):
    assert digest(name) == DIGESTS[name]


def test_digests_on_one_cpu():
    """What ``taskset -c 0`` runs: every mask block drawn in order on
    the caller, every word range peeled there (one subprocess)."""
    src = Path(repro.__file__).resolve().parents[1]
    root = Path(__file__).resolve().parents[2]
    code = (
        "import json, os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from tests.sim.test_pinned_profiles import digest\n"
        f"print(json.dumps({{name: digest(name) for name in {THREADED!r}}}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (src, root)))}
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {name: DIGESTS[name] for name in THREADED}


@pytest.mark.parametrize("serial_words", [0, 1 << 30], ids=["sweeps", "rounds"])
def test_graph3_digest_under_either_peel_body(monkeypatch, serial_words):
    """A crossover of 0 makes every iteration a serial sweep, one above
    any width every iteration a parallel round."""
    monkeypatch.setattr(BitsetBatchDecoder, "_serial_words", serial_words)
    assert digest("graph3") == DIGESTS["graph3"]


def test_sparse_digest_with_levels_collapsed():
    def collapsed(*args, **kwargs):
        return dataclasses.replace(
            tornado_csr_graph(*args, **kwargs), level_ranges=()
        )

    assert digest("sparse", csr=collapsed) == DIGESTS["sparse"]


def test_sparse_digest_at_chunk_7(monkeypatch):
    """Every block split at 7 constraints: another schedule, the same
    fixpoint."""
    kwdefaults = SparseBitsetDecoder.__init__.__kwdefaults__
    monkeypatch.setitem(kwdefaults, "chunk", 7)
    assert digest("sparse") == DIGESTS["sparse"]


def test_certain_cells_are_pinned_not_sampled():
    """Above num_nodes - num_data offline nodes no decoder can return
    the data: graph 3's k = 49..95 read exactly 1.0 with no sample
    drawn, leaving 42 sampled cells (k = 7..48)."""
    with trace_capture(Tracer(seed=1)) as traced:
        profile = profile_graph(
            tornado_catalog_graph(3), samples_per_k=64, seed=1
        )
    assert profile.samples[49:96].sum() == 0, profile.samples
    assert (profile.fail_fraction[49:] == 1.0).all()
    (sweep,) = [r for r in traced.records if r.get("name") == "profile.sweep"]
    assert sweep["attrs"]["cells"] == 42, sweep
