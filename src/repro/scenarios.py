"""The four fleet scenarios' configs, and the options they give the CLI.

``repro cluster loadgen`` (:class:`ClusterLoadConfig`), ``repro
cluster chaos`` (:class:`ClusterCampaignConfig`), ``repro sites
loadgen`` (:class:`SitesLoadConfig`) and ``repro sites chaos``
(:class:`SitesCampaignConfig`) each take one option per field of their
config.  The configs live here, apart from the drivers that run them,
so that building the parser loads no fleet or networking module: this
module imports ``dataclasses`` and :mod:`repro._checks` and nothing
else of ``repro``.  Every config refuses a bad value when it is built,
before its run spawns a process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

from ._checks import check_count, check_seconds

if TYPE_CHECKING:
    from .obs.seeding import SeedLike

__all__ = [
    "ClusterCampaignConfig",
    "ClusterLoadConfig",
    "SitesCampaignConfig",
    "SitesLoadConfig",
    "add_config_options",
    "config_from_args",
    "option",
]


def option(
    default: Any, help: str | None = None, *, metavar: str | None = None
) -> Any:
    """A scenario-config field, annotated for its command-line option.

    Every field of a scenario config is one option of its verb, named
    after the field; a ``bool`` field is a switch that turns it on.
    """
    return field(default=default, metadata={"help": help, "metavar": metavar})


# Field annotation (a string: this module postpones evaluation), less
# any ``| None`` -> argparse ``type``.  An annotation missing here fails
# the parser build instead of silently parsing as a string.
_OPTION_TYPES = {"int": int, "float": float, "str": None, "SeedLike": int}


def add_config_options(parser: Any, config_cls: type) -> None:
    """Give ``parser`` one option per field of ``config_cls``."""
    for f in fields(config_cls):
        flag = "--" + f.name.replace("_", "-")
        help_text = f.metadata.get("help")
        if f.type == "bool":
            parser.add_argument(flag, action="store_true", help=help_text)
        else:
            parser.add_argument(
                flag,
                type=_OPTION_TYPES[f.type.removesuffix(" | None")],
                default=f.default,
                metavar=f.metadata.get("metavar"),
                help=help_text,
            )


def config_from_args(args: Any, config_cls: type) -> Any:
    """The ``config_cls`` that :func:`add_config_options` parsed."""
    return config_cls(**{f.name: getattr(args, f.name) for f in fields(config_cls)})


@dataclass(frozen=True)
class ClusterLoadConfig:
    """Shape of one multi-process cluster exercise."""

    nodes: int = option(3, "storage-node processes (default 3)")
    objects: int = 6
    object_size: int = 4096
    block_size: int = 512
    requests: int = 60
    rate: float = option(100.0, "open-loop arrival rate, req/s (default 100)")
    seed: SeedLike = 0
    graph: str | None = option(None, "GraphML file passed to the coordinator")
    trace_dir: str | None = option(
        None,
        "directory for per-process trace files "
        "(coordinator.jsonl; pair with --trace for the driver's own)",
    )
    obs_dir: str | None = option(
        None,
        "scrape the fleet during the run and write a telemetry "
        "timeline (timeline.jsonl) plus SLO alerts to this directory",
    )
    scrape_every: int = option(
        10, "scrape after every N requests (default 10)"
    )

    def __post_init__(self) -> None:
        check_count(self.nodes, "nodes", 1)
        check_count(self.objects, "objects", 1)
        check_count(self.object_size, "object_size", 1)
        check_count(self.block_size, "block_size", 1)
        check_count(self.requests, "requests", 1)
        check_seconds(self.rate, "rate")
        check_count(self.scrape_every, "scrape_every", 1)


@dataclass(frozen=True)
class ClusterCampaignConfig:
    """Shape of one seeded cluster chaos campaign."""

    nodes: int = option(3, "storage-node processes (default 3)")
    objects: int = 4
    object_size: int = 2048
    block_size: int = 512
    steps: int = option(6, "fault-schedule steps (default 6)")
    seed: SeedLike = 0
    graph: str | None = option(None, "GraphML file passed to the coordinator")
    wal_dir: str | None = option(
        None,
        "coordinator WAL directory (default: private temp dir, "
        "removed afterwards)",
    )
    trace_dir: str | None = option(
        None,
        "directory for per-process trace files "
        "(coordinator.jsonl, coordinator-rN.jsonl per recovery)",
    )
    rpc_timeout: float = option(
        0.75, "coordinator per-attempt node RPC deadline (default 0.75)"
    )
    repair_budget: int | None = option(
        None, "coordinator repair bytes-per-cycle budget", metavar="BYTES"
    )
    midwrite_race: bool = option(
        False,
        "race a put against each coordinator SIGKILL (an acked "
        "put must survive recovery; disables the byte-identical "
        "state-digest check for that crash)",
    )

    def __post_init__(self) -> None:
        check_count(self.nodes, "nodes", 2)
        check_count(self.objects, "objects", 1)
        check_count(self.object_size, "object_size", 1)
        check_count(self.block_size, "block_size", 1)
        check_count(self.steps, "steps", 1)
        check_seconds(self.rpc_timeout, "rpc_timeout")
        if self.repair_budget is not None:
            check_count(self.repair_budget, "repair_budget", 1)


@dataclass(frozen=True)
class SitesLoadConfig:
    """Shape of one multi-process federation exercise."""

    sites: int = option(2, "federated sites (default 2)")
    nodes_per_site: int = 3
    objects: int = 4
    object_size: int = 4096
    block_size: int = 512
    reads_per_phase: int = 8
    rate: float = option(60.0, "open-loop arrival rate, req/s (default 60)")
    seed: SeedLike = 0
    # The selection bound; 6 keeps startup fast.
    site_max_size: int = option(
        6, "per-site erasure bound for graph selection (default 6)"
    )
    curve_samples: int = option(
        100, "failure-curve samples per pairing (default 100)"
    )
    rpc_timeout: float = 5.0
    work_dir: str | None = option(
        None,
        "manifest + per-site WAL directory "
        "(default: private temp dir, removed afterwards)",
    )
    trace_dir: str | None = option(
        None,
        "directory for per-process trace files "
        "(gateway.jsonl, site-N-coordinator.jsonl, ...)",
    )
    obs_dir: str | None = option(
        None,
        "scrape the federation at phase boundaries and write a "
        "telemetry timeline (timeline.jsonl) to this directory",
    )

    def __post_init__(self) -> None:
        check_count(self.sites, "sites", 2)
        check_count(self.nodes_per_site, "nodes_per_site", 3)  # striding
        check_count(self.objects, "objects", 1)
        check_count(self.object_size, "object_size", 1)
        check_count(self.block_size, "block_size", 1)
        check_count(self.reads_per_phase, "reads_per_phase", 1)
        check_seconds(self.rate, "rate")
        check_count(self.site_max_size, "site_max_size", 1)
        check_count(self.curve_samples, "curve_samples", 1)
        check_seconds(self.rpc_timeout, "rpc_timeout")


@dataclass(frozen=True)
class SitesCampaignConfig:
    """Shape of one federation chaos campaign."""

    sites: int = 2
    nodes_per_site: int = 3
    objects: int = 3
    object_size: int = 4096
    block_size: int = 512
    steps: int = option(6, "campaign steps, one model year each (default 6)")
    seed: SeedLike = 0
    # Per-device hazard process (one campaign step = one model year).
    afr: float = option(0.25, "per-device annual failure rate (default 0.25)")
    shape: float = option(3.0, "Weibull wear-out shape (default 3.0)")
    infant_mortality: float = option(
        0.15, "probability a replacement is an infant unit"
    )
    rpc_timeout: float = 5.0
    work_dir: str | None = None
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        check_count(self.sites, "sites", 2)
        check_count(self.nodes_per_site, "nodes_per_site", 3)  # striding
        check_count(self.objects, "objects", 1)
        check_count(self.object_size, "object_size", 1)
        check_count(self.block_size, "block_size", 1)
        check_count(self.steps, "steps", 1)
        if not check_seconds(self.afr, "afr") < 1:
            raise ValueError(f"afr must be in (0, 1), got {self.afr}")
        check_seconds(self.shape, "shape")
        if check_seconds(self.infant_mortality, "infant_mortality", zero=True) > 1:
            raise ValueError(
                f"infant_mortality must lie in [0, 1], got {self.infant_mortality}"
            )
        check_seconds(self.rpc_timeout, "rpc_timeout")
