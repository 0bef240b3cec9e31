"""Import path of :mod:`repro.core.plancache` that ``perf/layers.py`` hooks.

The plan cache is the codec's scheduler and lives in :mod:`repro.core`;
the frozen benchmark imports ``PlanCache`` from here and patches
``schedule`` on it, so this module hands out the *same class object*.
To be deleted with ROADMAP item 1 slice A0(c).
"""

from ..core.plancache import PlanCache, graph_key

__all__ = ["PlanCache", "graph_key"]
