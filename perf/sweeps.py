"""The two Monte Carlo sweep workloads.

``sweep_small`` is the paper's own experiment: the failure profile of a
96-node catalog graph (exact stage to k=6, every other cell sampled) on
the dense mask generator and the ``bitset`` kernel.  ``sweep_large``
runs the same layers on their other implementations — the
bounded-memory mask generator and the ``sparse`` kernel, which ``auto``
selects from 16 384 nodes up — so a gain on one path that costs the
other shows.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

import repro
from repro.core.decoder import PeelingDecoder
from repro.core.sparse import jit_enabled, packed_sparse_loss_masks
from repro.obs import spawn_seeds
from repro.sim import sample_fail_fraction
from repro.storage.monitor import graph_first_failure

from budget import OpIndex
from common import Checks, PhaseClock, Round, Stat, median_stat
from layers import Recorder

N_JOBS = 1
ENGINE = "auto"


class _ScalarEngine:
    """One-case-at-a-time reference for ``sample_fail_fraction``.

    Offers only ``decode_batch``, so the estimator feeds it the boolean
    masks of the very RNG stream the packed engines consume.
    """

    def __init__(self, graph):
        self._decoder = PeelingDecoder(graph)

    def decode_batch(self, masks: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (
                self._decoder.decode(np.flatnonzero(row)).success
                for row in masks
            ),
            dtype=bool,
            count=len(masks),
        )


class Sweep:
    """``profile_graph`` on one graph, one call per round."""

    def __init__(
        self,
        name: str,
        seed: int,
        build_graph: Callable[[], Any],
        samples_per_k: int,
        ks_of: Callable[[int], list[int] | None],
        nominal_round_s: float,
    ):
        self.name = name
        self.seed = seed
        self.nominal_round_s = nominal_round_s
        self.samples_per_k = samples_per_k
        self._build_graph = build_graph
        self._ks_of = ks_of
        self.graph = None
        self.last: tuple[int, Any] | None = None

    # -- life cycle ----------------------------------------------------

    def setup(self) -> None:
        self.graph = self._build_graph()
        self.ks = self._ks_of(self.graph.num_nodes)

    def teardown(self) -> None:
        self.graph = None

    def config(self) -> dict[str, Any]:
        return {
            "graph": self.graph.name,
            "num_nodes": self.graph.num_nodes,
            "samples_per_k": self.samples_per_k,
            "ks": self.ks,
            "engine": repro.resolve_engine(
                ENGINE, num_nodes=self.graph.num_nodes
            ),
            "jit_enabled": jit_enabled(),
            "n_jobs": N_JOBS,
        }

    # -- one round -----------------------------------------------------

    def round(self, index: int, checks: Checks) -> Round:
        rnd = Round()
        seed = self.seed + index
        with PhaseClock(rnd):
            start = time.perf_counter()
            profile = repro.profile_graph(
                self.graph,
                samples_per_k=self.samples_per_k,
                ks=self.ks,
                seed=seed,
                n_jobs=N_JOBS,
                engine=ENGINE,
            )
            rnd.windows.append(("sweep", start, time.perf_counter()))
        rnd.counts["cases"] = float(profile.samples.sum())
        self.last = (seed, profile)
        self._check_profile(profile, checks)
        return rnd

    def _check_profile(self, profile, checks: Checks) -> None:
        fail = profile.fail_fraction
        n = self.graph.num_nodes
        checks.check(fail[n] == 1.0, f"{self.name}: fail[n] != 1")
        checks.check(fail[0] == 0.0, f"{self.name}: fail[0] != 0")
        checks.check(
            bool(profile.coverage.all()), f"{self.name}: uncovered cells"
        )
        if hasattr(self.graph, "constraints"):
            ff = graph_first_failure(self.graph)
            checks.check(
                not fail[:ff].any(),
                f"{self.name}: failures below first_failure={ff}",
            )

    # -- end-of-run differential (untimed) -----------------------------

    def verify(self, checks: Checks) -> None:
        """Re-derive cells of the last profile on an independent path."""
        seed, profile = self.last
        cells = np.flatnonzero(profile.samples)
        children = spawn_seeds(seed, len(cells))
        if hasattr(self.graph, "constraints"):
            self._verify_scalar(profile, cells, children, checks)
        else:
            self._verify_redecode(profile, cells, children, checks)

    def _verify_scalar(self, profile, cells, children, checks) -> None:
        # Three cells spread over the curve's rise, where an engine
        # disagreement cannot hide behind an all-0 or all-1 answer.
        fail = profile.fail_fraction[cells]
        picks = {
            int(np.abs(fail - target).argmin())
            for target in (0.1, 0.5, 0.9)
        }
        scalar = _ScalarEngine(self.graph)
        for i in sorted(picks):
            k = int(cells[i])
            frac = sample_fail_fraction(
                self.graph, k, self.samples_per_k,
                np.random.default_rng(children[i]), decoder=scalar,
            )
            checks.check(
                frac == profile.fail_fraction[k],
                f"{self.name}: scalar engine disagrees at k={k}",
            )

    def _verify_redecode(self, profile, cells, children, checks) -> None:
        # One regenerated batch through a decoder built the other way
        # (no JIT, small plane chunks): same masks, same answer.
        i = len(cells) - 1
        k = int(cells[i])
        rng = np.random.default_rng(children[i])
        n = self.graph.num_nodes
        packed = packed_sparse_loss_masks(n, k, self.samples_per_k, rng)
        decoder = repro.SparseBitsetDecoder(
            self.graph, jit=False, chunk=1 << 12
        )
        ok = decoder.decode_packed(packed, self.samples_per_k)
        frac = float(self.samples_per_k - ok.sum()) / self.samples_per_k
        checks.check(
            frac == profile.fail_fraction[k],
            f"{self.name}: jit=False re-decode disagrees at k={k}",
        )

    # -- metrics -------------------------------------------------------

    def named(self, rounds: list[Round]) -> dict[str, Stat]:
        return {
            "sweep_cases_per_s": median_stat(
                [r.counts["cases"] / r.wall_s for r in rounds]
            )
        }

    def layer_metrics(
        self,
        rounds: list[Round],
        recorder: Recorder,
        span_records: list[dict[str, Any]],
        warm: Round,
        warm_recorder: Recorder,
    ) -> tuple[dict[str, float], list[str]]:
        ops = OpIndex(w for r in rounds for w in r.windows)
        wall = ops.seconds["sweep"]
        n = ops.count["sweep"]
        tallies = {
            key: ops.tally(recorder.records.get(key, ()))["sweep"]
            for key in ("exact", "decoder.build", "maskgen", "kernel")
        }
        attributed = sum(t.seconds for t in tallies.values())
        maskgen, kernel = tallies["maskgen"], tallies["kernel"]

        def rate(t) -> float:
            return t.extra / t.seconds if t.seconds else 0.0

        metrics = {
            "core.critical.exact_s": tallies["exact"].seconds / n,
            "core.decoder.build_s": tallies["decoder.build"].seconds / n,
            "sim.maskgen.s": maskgen.seconds / n,
            "sim.maskgen.cases_per_s": rate(maskgen),
            "sim.maskgen.share": maskgen.seconds / wall,
            "core.kernel.s": kernel.seconds / n,
            "core.kernel.cases_per_s": rate(kernel),
            "core.kernel.share": kernel.seconds / wall,
            "sim.montecarlo.unattributed_share": (wall - attributed) / wall,
        }
        lines = [
            f"budget sweep: {n} rounds, {wall / n:.3f} s/round wall",
            *(
                f"  {key:<24}{t.seconds / n:>10.3f} s/round"
                f"{100 * t.seconds / wall:>7.1f} %"
                for key, t in sorted(
                    tallies.items(), key=lambda kv: -kv[1].seconds
                )
            ),
            f"  {'unattributed':<24}{(wall - attributed) / n:>10.3f} s/round"
            f"{100 * (wall - attributed) / wall:>7.1f} %",
        ]
        return metrics, lines


def sweep_small(
    seed: int, *, graph_number: int = 3, samples_per_k: int = 16384
) -> Sweep:
    return Sweep(
        "sweep_small",
        seed,
        lambda: repro.tornado_catalog_graph(graph_number),
        samples_per_k,
        lambda n: None,
        nominal_round_s=2.8,
    )


def sweep_large(
    seed: int, *, num_data: int = 8192, samples_per_k: int = 2048
) -> Sweep:
    return Sweep(
        "sweep_large",
        seed,
        lambda: repro.tornado_csr_graph(num_data, seed=seed),
        samples_per_k,
        lambda n: [n // 10, n // 4],
        nominal_round_s=3.8,
    )
