"""Reporting and caching utilities for the experiment harness."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cache": ("ProfileCache", "default_cache"),
        ".report": (
            "ascii_curves",
            "format_table",
            "markdown_table",
            "profile_summary_table",
        ),
        ".stats": ("GraphStats", "LevelStats", "graph_stats"),
        ".svg": ("save_svg", "svg_curves", "svg_failure_graph"),
    },
)
