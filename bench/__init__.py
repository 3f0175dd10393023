"""Host-time benchmark of the repro simulator, end to end and by layer.

``python -m bench --seed N [--workload NAME] [--seconds S] [--trace 0|1]``
runs each workload in fresh subprocesses against the ``src/`` tree next
to this package, prints every metric as ``name value unit`` and ends
with one JSON result line.  See ``bench/README.md``.

Importing this package imports nothing from ``repro``; only the child
processes do, after pointing ``sys.path`` at :data:`SRC`.
"""

from pathlib import Path

#: checkout root: the directory holding ``bench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
#: the program under test.
SRC = ROOT / "src"
#: records and scratch directories (git-ignored).
RESULTS = Path(__file__).resolve().parent / "results"
