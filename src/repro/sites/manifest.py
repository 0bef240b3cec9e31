"""Federation manifest: which certified graph protects which site.

The paper's §5.3 proposal is *cooperative graph selection*: sites in a
federation do not all deploy the same Tornado graph, they deploy
complementary ones, because joint failure needs critical sets with the
same data signature at every site simultaneously (Table 7: the same
three graphs give first failure 10 when paired with themselves and
17-19 when paired complementarily).

:func:`assign_site_graphs` runs the cooperative selection
(:func:`repro.federation.select_complementary_pair`) over the certified
catalog and freezes the outcome into a :class:`FederationManifest` — a
JSON-round-trippable record of the per-site graph assignment, the
search bound it was made under, and every pairwise detected first
failure.  The gateway, the drivers, and CI all consume the same
manifest file, so "which graph runs where" has exactly one source of
truth per deployment.

First-failure reporting follows Table 7's convention: the search is a
*detected* first failure within ``site_max_size`` losses per site.
When no joint failure is detected within the bound, the pairing's
``first_failure_floor`` is ``2 * site_max_size + 1`` — every loss
pattern with at most ``site_max_size`` devices down per site was
cleared, so the true first failure is strictly above the bound.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence

from .._checks import check_count
from ..core.graph import ErasureGraph
from ..federation import FederatedSystem, select_complementary_pair
from ..graphs import tornado_catalog_graph

__all__ = [
    "FederationManifest",
    "PairingRecord",
    "SiteAssignment",
    "assign_site_graphs",
]

_CATALOG_NUMBERS = (1, 2, 3)


def _graph_number(name: str) -> int:
    """``tornado-graph-N`` -> ``N`` (the catalog key)."""
    try:
        return int(name.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        raise ValueError(
            f"graph {name!r} is not a catalog graph"
        ) from None


@dataclass(frozen=True)
class SiteAssignment:
    """One site and the certified catalog graph it deploys."""

    site_id: str
    graph_number: int
    weight: int = 1

    def __post_init__(self) -> None:
        if not self.site_id:
            raise ValueError("site_id must be non-empty")
        if self.graph_number not in _CATALOG_NUMBERS:
            raise ValueError(
                f"graph_number must be one of {_CATALOG_NUMBERS}"
            )
        check_count(self.weight, "weight", 1)

    @property
    def graph(self) -> ErasureGraph:
        return tornado_catalog_graph(self.graph_number)


@dataclass(frozen=True)
class PairingRecord:
    """Detected-first-failure evidence for one site pairing.

    ``detected_first_failure`` is the Table 7 number (None: no joint
    failure found within the search bound); ``first_failure_floor`` is
    the number the federation may *claim* — the detection when there is
    one, else ``2 * site_max_size + 1`` (the bound was exhausted
    clean).
    """

    site_a: str
    site_b: str
    detected_first_failure: int | None
    first_failure_floor: int


@dataclass(frozen=True)
class FederationManifest:
    """The frozen outcome of cooperative graph selection."""

    sites: tuple[SiteAssignment, ...]
    site_max_size: int
    pairings: tuple[PairingRecord, ...]

    def __post_init__(self) -> None:
        if len(self.sites) < 2:
            raise ValueError("a federation needs at least two sites")
        ids = [s.site_id for s in self.sites]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate site ids: {ids}")
        check_count(self.site_max_size, "site_max_size", 1)

    # -- lookups -------------------------------------------------------

    @property
    def site_ids(self) -> tuple[str, ...]:
        return tuple(s.site_id for s in self.sites)

    def assignment(self, site_id: str) -> SiteAssignment:
        for s in self.sites:
            if s.site_id == site_id:
                return s
        raise KeyError(f"no site named {site_id!r} in the manifest")

    def graphs(self) -> dict[str, ErasureGraph]:
        """site id -> its deployed (cached catalog) graph."""
        return {s.site_id: s.graph for s in self.sites}

    def first_failure_floor(self) -> int:
        """The weakest pairwise floor: what the federation may claim."""
        return min(p.first_failure_floor for p in self.pairings)

    def system(self) -> FederatedSystem:
        """The analytical model of this federation's graphs."""
        return FederatedSystem(
            [s.graph for s in self.sites]
        )

    # -- JSON ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "sites": [
                {
                    "site_id": s.site_id,
                    "graph_number": s.graph_number,
                    "weight": s.weight,
                }
                for s in self.sites
            ],
            "site_max_size": self.site_max_size,
            "pairings": [
                {
                    "site_a": p.site_a,
                    "site_b": p.site_b,
                    "detected_first_failure": p.detected_first_failure,
                    "first_failure_floor": p.first_failure_floor,
                }
                for p in self.pairings
            ],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FederationManifest":
        return cls(
            sites=tuple(
                SiteAssignment(
                    site_id=s["site_id"],
                    graph_number=int(s["graph_number"]),
                    weight=int(s.get("weight", 1)),
                )
                for s in raw["sites"]
            ),
            site_max_size=int(raw["site_max_size"]),
            pairings=tuple(
                PairingRecord(
                    site_a=p["site_a"],
                    site_b=p["site_b"],
                    detected_first_failure=(
                        None
                        if p["detected_first_failure"] is None
                        else int(p["detected_first_failure"])
                    ),
                    first_failure_floor=int(p["first_failure_floor"]),
                )
                for p in raw["pairings"]
            ),
        )

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "FederationManifest":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def assign_site_graphs(
    site_ids: Sequence[str],
    *,
    site_max_size: int = 7,
    curve_samples: int = 200,
    weights: Sequence[int] | None = None,
    seed: int = 0,
) -> FederationManifest:
    """Cooperatively assign catalog graphs to ``site_ids``.

    Two sites get the catalog's best complementary pairing straight
    from :func:`select_complementary_pair`.  More sites are assigned
    greedily: each next site takes the graph whose *worst* pairing
    against the graphs already placed is best — the federation is only
    as strong as its weakest pair, so the greedy step maximises the
    minimum.  Deterministic for a given (pool, bound, samples, seed).
    """
    site_ids = list(site_ids)
    if len(site_ids) < 2:
        raise ValueError("a federation needs at least two sites")
    if weights is not None and len(weights) != len(site_ids):
        raise ValueError("weights must match site_ids")
    pool = [tornado_catalog_graph(n) for n in _CATALOG_NUMBERS]
    report = select_complementary_pair(
        pool,
        site_max_size=site_max_size,
        curve_samples=curve_samples,
        allow_duplicates=True,
        seed=seed,
    )
    # Score every unordered pairing (duplicates included) once.
    score_by_pair = {
        frozenset((s.graph_a, s.graph_b)): s.sort_key
        for s in report.ranking
    }

    def pair_key(name_a: str, name_b: str) -> tuple[float, float]:
        return score_by_pair[frozenset((name_a, name_b))]

    chosen = [report.best.graph_a, report.best.graph_b]
    while len(chosen) < len(site_ids):
        best_name, best_score = None, None
        for candidate in (g.name for g in pool):
            worst = min(
                pair_key(candidate, placed) for placed in chosen
            )
            if best_score is None or worst > best_score:
                best_name, best_score = candidate, worst
        chosen.append(best_name)

    sites = tuple(
        SiteAssignment(
            site_id=sid,
            graph_number=_graph_number(chosen[i]),
            weight=1 if weights is None else int(weights[i]),
        )
        for i, sid in enumerate(site_ids)
    )
    detected = {
        frozenset((s.graph_a, s.graph_b)): s.detected_first_failure
        for s in report.ranking
    }
    floor_if_clean = 2 * site_max_size + 1
    pairings = []
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            hit = detected[
                frozenset((chosen[i], chosen[j]))
            ]
            pairings.append(
                PairingRecord(
                    site_a=sites[i].site_id,
                    site_b=sites[j].site_id,
                    detected_first_failure=hit,
                    first_failure_floor=(
                        hit if hit is not None else floor_if_clean
                    ),
                )
            )
    return FederationManifest(
        sites=sites,
        site_max_size=site_max_size,
        pairings=tuple(pairings),
    )
