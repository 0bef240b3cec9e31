"""Alternate graph families the paper compares against Tornado Codes."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "..core.cascade": ("cascade_graph_from_degrees",),
        ".altered": ("altered_tornado_doubled", "altered_tornado_shifted"),
        ".catalog": (
            "NUM_DATA_96",
            "TORNADO_SEEDS",
            "catalog_96_node_systems",
            "tornado_catalog_graph",
        ),
        ".lec": ("LECCandidate", "lec_like_graph"),
        ".mirror": ("mirrored_graph", "replicated_graph", "striped_graph"),
        ".regular": ("regular_graph",),
    },
)
