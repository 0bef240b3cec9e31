"""Make ``perf/`` and the checkout's ``src/`` importable for the tests.

Run with ``python3 -m pytest perf/tests`` from the repository root.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
for path in (PERF.parent / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
