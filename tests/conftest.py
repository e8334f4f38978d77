import os
from pathlib import Path

import numpy as np
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


@pytest.fixture()
def chunk_points(monkeypatch):
    """Set the chunk size, ``gse.params.CHUNK_POINTS``, for this test;
    every module splits its points by ``gse.params.chunks``."""
    def set_size(size):
        monkeypatch.setattr("gse.params.CHUNK_POINTS", size)
    return set_size


@pytest.fixture()
def count_calls(monkeypatch):
    """Count calls of the named numpy.linalg functions from here on."""
    def start(*names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _inner=getattr(np.linalg, name),
                        **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return calls
    return start
