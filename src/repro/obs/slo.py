"""SLO objectives, multi-window burn-rate alerts, error budgets.

The fleet view (:mod:`repro.obs.scrape`) says what the archive is
doing; this module says whether that is *acceptable*.  Each
:class:`Objective` reduces the time series to a per-window **bad
fraction** in ``[0, 1]``:

=================  ====================================================
kind               bad fraction over a window
=================  ====================================================
``ratio``          counter increase of ``bad`` ÷ increase of ``total``
``gauge_ratio``    mean over samples of ``bad`` ÷ ``total`` gauges
``gauge_above``    fraction of samples where gauge ``metric`` > bound
``gauge_below``    fraction of samples where gauge ``metric`` < bound
``quantile_above`` 1.0 when the windowed histogram quantile > bound
``rate_above``     1.0 when the windowed counter rate > bound
=================  ====================================================

**Burn rate** is bad fraction ÷ error budget (``1 − target``): burn 1
spends the budget exactly at the objective's pace; burn 14.4 exhausts
a 30-day budget in two days.  Alerting follows the multi-window
pattern (Google SRE workbook ch. 5): each objective carries window
pairs — fast ``5m/1h`` at threshold 14.4 to page quickly, slow
``1h/6h`` at threshold 6 to catch smoulder — and an alert **fires**
when *both* windows of a pair exceed the threshold (the long window
proves it is real, the short window proves it is still happening) and
**clears** as soon as the short window drops back under (the short
window is what lets recovery reset the alert promptly).  All window
arithmetic runs on the store's timestamps, which under a driver's
:class:`~repro.obs.scrape.LogicalClock` makes fire/clear timing a
deterministic function of the injected faults.

The **durability health score** makes "stripes one erasure from
unrecoverable" first-class: from the repair scheduler's margins
(first-failure − 1 − missing per stripe, scraped as
``fleet.repair.margin_min`` / ``fleet.at_risk_stripes``) it reports
``score = (margin_min + 1) / (healthy_margin + 1)`` clamped to
``[0, 1]`` — 1.0 is a fully healthy fleet, 0.0 means some stripe has
exhausted its certain-recovery margin — and the same gauges are
alertable through ordinary ``gauge_below`` / ``gauge_above``
objectives (the built-in :data:`DEFAULT_OBJECTIVES` do exactly that).

The engine keeps no samples of its own: it evaluates the store it is
given at a ``now``, once per sample.  Each evaluation charges the
error budgets for the time since the previous one (the first counts
none), so :meth:`SloEngine.replay` over a loaded timeline walks the
same states, alerts and budgets as the live engine did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .._checks import check_seconds

__all__ = [
    "DEFAULT_OBJECTIVES",
    "BurnWindow",
    "Objective",
    "SloEngine",
]

_KINDS = (
    "ratio",
    "gauge_ratio",
    "gauge_above",
    "gauge_below",
    "quantile_above",
    "rate_above",
)

BUDGET_WINDOW = 30 * 24 * 3600.0  # error budgets are per 30 days


@dataclass(frozen=True)
class BurnWindow:
    """One fast/slow alerting pair: short + long window, one threshold."""

    name: str
    short_seconds: float
    long_seconds: float
    threshold: float

    def __post_init__(self) -> None:
        check_seconds(self.short_seconds, "short_seconds")
        check_seconds(self.long_seconds, "long_seconds")
        if self.short_seconds > self.long_seconds:
            raise ValueError(
                f"window {self.name!r}: short window "
                f"({self.short_seconds}s) exceeds long window "
                f"({self.long_seconds}s)"
            )
        check_seconds(self.threshold, "threshold")


DEFAULT_WINDOWS = (
    BurnWindow("fast", 300.0, 3600.0, 14.4),
    BurnWindow("slow", 3600.0, 21600.0, 6.0),
)


@dataclass(frozen=True)
class Objective:
    """One SLO: an SLI reduction, a target, and its alert windows."""

    name: str
    kind: str
    target: float = 0.999
    bad: str | None = None
    total: str | None = None
    metric: str | None = None
    bound: float | None = None
    quantile: float = 0.99
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"objective {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {_KINDS})"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"objective {self.name!r}: target must be in (0, 1)"
            )
        if self.kind in ("ratio", "gauge_ratio"):
            if not self.bad or not self.total:
                raise ValueError(
                    f"objective {self.name!r}: kind {self.kind!r} "
                    "needs 'bad' and 'total' metric names"
                )
        else:
            if not self.metric or self.bound is None:
                raise ValueError(
                    f"objective {self.name!r}: kind {self.kind!r} "
                    "needs 'metric' and 'bound'"
                )
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(
                f"objective {self.name!r}: quantile must be in (0, 1)"
            )
        if not self.windows:
            raise ValueError(
                f"objective {self.name!r}: needs at least one window"
            )

    @property
    def budget(self) -> float:
        return max(1e-9, 1.0 - self.target)

    # ------------------------------------------------------------------
    # SLI reduction
    # ------------------------------------------------------------------

    def bad_fraction(
        self, store, window: float, now: float | None = None
    ) -> float:
        """This objective's bad fraction over ``window`` seconds."""
        if self.kind == "ratio":
            total = store.counter_increase(self.total, window, now)
            if total <= 0:
                return 0.0
            bad = store.counter_increase(self.bad, window, now)
            return min(1.0, bad / total)
        if self.kind == "gauge_ratio":
            fractions = []
            for sample in store.window(window, now):
                gauges = sample["gauges"]
                total = float(gauges.get(self.total, 0.0))
                if total > 0:
                    fractions.append(
                        min(1.0, float(gauges.get(self.bad, 0.0)) / total)
                    )
            if not fractions:
                return 0.0
            return sum(fractions) / len(fractions)
        if self.kind == "gauge_above":
            return store.violation_fraction(
                lambda s: self.metric in s["gauges"]
                and float(s["gauges"][self.metric]) > self.bound,
                window,
                now,
            )
        if self.kind == "gauge_below":
            return store.violation_fraction(
                lambda s: self.metric in s["gauges"]
                and float(s["gauges"][self.metric]) < self.bound,
                window,
                now,
            )
        if self.kind == "quantile_above":
            q = store.histogram_quantile(
                self.metric, self.quantile, window, now
            )
            return 1.0 if q is not None and q > self.bound else 0.0
        # rate_above
        rate = store.counter_rate(self.metric, window, now)
        return 1.0 if rate > self.bound else 0.0

    def burn_rate(
        self, store, window: float, now: float | None = None
    ) -> float:
        return self.bad_fraction(store, window, now) / self.budget


# The objectives ROADMAP items 2/4 care about, tuned for the repo's
# drivers (a logical 60 s scrape interval).
DEFAULT_OBJECTIVES = (
    Objective(
        name="availability",
        kind="gauge_ratio",
        bad="fleet.targets.down",
        total="fleet.targets.total",
        target=0.999,
        description="fraction of fleet processes answering scrapes",
    ),
    Objective(
        name="read-p99",
        kind="quantile_above",
        metric="cluster.get.seconds",
        quantile=0.99,
        bound=0.5,
        target=0.99,
        description="cluster object-read p99 stays under 500 ms",
    ),
    Objective(
        name="shed-rate",
        kind="ratio",
        bad="serve.shed",
        total="serve.requests",
        target=0.99,
        description="requests shed by admission control",
    ),
    Objective(
        name="repair-margin",
        kind="gauge_below",
        metric="fleet.repair.margin_min",
        bound=1.0,
        target=0.999,
        description="no stripe within one loss of its guarantee",
    ),
    Objective(
        name="wan-read-rate",
        kind="rate_above",
        metric="sites.read.wan_bytes",
        bound=1_000_000.0,
        target=0.99,
        description="cross-site read traffic under 1 MB/s",
    ),
    Objective(
        name="at-risk-stripes",
        kind="gauge_above",
        metric="fleet.at_risk_stripes",
        bound=0.0,
        target=0.999,
        description="scrub-derived count of margin-exhausted stripes",
    ),
)


class _AlertState:
    __slots__ = ("firing", "fired_at", "cleared_at", "fires")

    def __init__(self):
        self.firing = False
        self.fired_at: float | None = None
        self.cleared_at: float | None = None
        self.fires = 0


class SloEngine:
    """Evaluate objectives against a time-series store; track alerts."""

    def __init__(
        self, objectives: tuple[Objective, ...] = DEFAULT_OBJECTIVES
    ):
        names = [o.name for o in objectives]
        if not names or len(set(names)) != len(names):
            raise ValueError(
                f"objective names must be present and unique: {names}"
            )
        self.objectives = tuple(objectives)
        self._states: dict[tuple[str, str], _AlertState] = {
            (o.name, w.name): _AlertState()
            for o in self.objectives
            for w in o.windows
        }
        self._consumed: dict[str, float] = {
            o.name: 0.0 for o in self.objectives
        }
        self._last_eval: float | None = None
        self.transitions: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self, store, now: float | None = None
    ) -> list[dict[str, Any]]:
        """One evaluation pass; returns the alert transitions it caused.

        ``now`` defaults to the newest sample's ``ts``.  The pass
        charges each budget with the objective's bad fraction over the
        time since the previous pass, and the first pass charges
        nothing.  Transition records are plain dicts (``event:
        "slo.alert"``) ready to append to a timeline JSONL next to the
        samples that caused them.
        """
        latest = store.latest()
        if latest is None:
            return []
        if now is None:
            now = latest["ts"]
        dt = 0.0 if self._last_eval is None else max(0.0, now - self._last_eval)
        self._last_eval = now
        transitions: list[dict[str, Any]] = []
        for objective in self.objectives:
            self._consumed[objective.name] += (
                objective.bad_fraction(store, dt, now) * dt
            )
            for window in objective.windows:
                burn_short = objective.burn_rate(
                    store, window.short_seconds, now
                )
                burn_long = objective.burn_rate(
                    store, window.long_seconds, now
                )
                state = self._states[(objective.name, window.name)]
                if (
                    not state.firing
                    and burn_short > window.threshold
                    and burn_long > window.threshold
                ):
                    state.firing = True
                    state.fired_at = now
                    state.fires += 1
                    transitions.append(
                        self._transition(
                            objective, window, "firing",
                            now, burn_short, burn_long,
                        )
                    )
                elif state.firing and burn_short <= window.threshold:
                    state.firing = False
                    state.cleared_at = now
                    transitions.append(
                        self._transition(
                            objective, window, "ok",
                            now, burn_short, burn_long,
                        )
                    )
        self.transitions.extend(transitions)
        return transitions

    @staticmethod
    def _transition(
        objective: Objective,
        window: BurnWindow,
        state: str,
        now: float,
        burn_short: float,
        burn_long: float,
    ) -> dict[str, Any]:
        return {
            "event": "slo.alert",
            "objective": objective.name,
            "window": window.name,
            "state": state,
            "ts": now,
            "burn_short": round(burn_short, 4),
            "burn_long": round(burn_long, 4),
            "threshold": window.threshold,
        }

    def replay(self, store) -> list[dict[str, Any]]:
        """Evaluate at every sample's ``ts`` in turn, as a live run did.

        Every query reads only samples at-or-before its ``now``, so
        the fire/clear timestamps and budgets land exactly where they
        did live.
        """
        transitions: list[dict[str, Any]] = []
        for sample in store:
            transitions.extend(self.evaluate(store, sample["ts"]))
        return transitions

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def firing(self) -> list[dict[str, Any]]:
        return [
            {"objective": name, "window": window}
            for (name, window), state in sorted(self._states.items())
            if state.firing
        ]

    def durability(self, store) -> dict[str, Any]:
        """Margin-derived health score from the latest fleet sample."""
        latest = store.latest()
        gauges = latest["gauges"] if latest else {}
        margin = gauges.get("fleet.repair.margin_min")
        at_risk = gauges.get("fleet.at_risk_stripes")
        healthy = gauges.get("cluster.repair.healthy_margin")
        score = None
        if margin is not None and healthy is not None and healthy >= 0:
            score = max(
                0.0, min(1.0, (margin + 1.0) / (healthy + 1.0))
            )
        return {
            "margin_min": margin,
            "at_risk_stripes": at_risk,
            "healthy_margin": healthy,
            "score": score,
        }

    def status(self, store, now: float | None = None) -> dict[str, Any]:
        """Full report: burns, states, budgets, durability score."""
        latest = store.latest()
        if now is None and latest is not None:
            now = latest["ts"]
        objectives: dict[str, Any] = {}
        for objective in self.objectives:
            budget_seconds = objective.budget * BUDGET_WINDOW
            consumed = self._consumed[objective.name]
            windows: dict[str, Any] = {}
            for window in objective.windows:
                state = self._states[(objective.name, window.name)]
                windows[window.name] = {
                    "burn_short": round(
                        objective.burn_rate(
                            store, window.short_seconds, now
                        ),
                        4,
                    ),
                    "burn_long": round(
                        objective.burn_rate(
                            store, window.long_seconds, now
                        ),
                        4,
                    ),
                    "threshold": window.threshold,
                    "firing": state.firing,
                    "fires": state.fires,
                    "fired_at": state.fired_at,
                    "cleared_at": state.cleared_at,
                }
            objectives[objective.name] = {
                "kind": objective.kind,
                "target": objective.target,
                "description": objective.description,
                "windows": windows,
                "budget": {
                    "window_seconds": BUDGET_WINDOW,
                    "budget_seconds": budget_seconds,
                    "consumed_bad_seconds": round(consumed, 3),
                    "remaining_fraction": round(
                        max(0.0, 1.0 - consumed / budget_seconds), 6
                    ),
                },
            }
        return {
            "ts": now,
            "samples": len(store),
            "objectives": objectives,
            "firing": self.firing(),
            "durability": self.durability(store),
        }
