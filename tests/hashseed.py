"""Run one python snippet in fresh interpreters, one per hash seed.

The repo-wide determinism bar is that outputs are bit-identical under
any ``PYTHONHASHSEED``: the tests feed a script that prints a digest to
:func:`outputs_under_hash_seeds` and compare what each process printed.
"""

import os
import subprocess
import sys

import repro

#: the directory holding the ``repro`` package the tests import.
SRC_DIR = os.path.dirname(os.path.dirname(repro.__file__))


def outputs_under_hash_seeds(script, hash_seeds):
    """The stdout of ``python -c script`` under each of *hash_seeds*,
    in order, with :data:`SRC_DIR` on ``PYTHONPATH``.  A process that
    exits non-zero raises :class:`subprocess.CalledProcessError`."""
    outputs = []
    for hash_seed in hash_seeds:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=SRC_DIR)
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True, env=env).stdout)
    return outputs
