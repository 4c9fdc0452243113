import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import catsl2


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def run_python():
    """Run the interpreter on this checkout's catsl2, under -O when asked."""
    src = str(Path(catsl2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args, optimize=False):
        cmd = [sys.executable, *(["-O"] if optimize else []), *args]
        return subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=300)
    return run
