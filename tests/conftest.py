import os
from pathlib import Path

import pytest

# Test modules import numpy before gse, and OpenBLAS fixes its thread
# count when numpy loads; importing gse first makes the whole test run
# use the package's one-thread default.
import gse

SRC = str(Path(gse.__file__).parents[1])


@pytest.fixture()
def child_env():
    """Build a child process's environment: this one without
    OPENBLAS_NUM_THREADS and with gse importable, plus the given
    variables."""
    def build(**variables):
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (SRC, env.get("PYTHONPATH"))))
        return dict(env, **variables)
    return build
