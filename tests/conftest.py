import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import catsl2
from catsl2 import complexes


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


@contextmanager
def todays_pivot_key():
    """Run every fold on today's pivot key, the lowest (j, i): `fold` looks
    `complexes.simplify` up at each step, so a stand-in that drops the
    fill-in keyword reaches the fold behind `link_homology` too."""
    simplify = complexes.simplify
    complexes.simplify = lambda c, maps=(), fill_in=False: simplify(c, maps)
    try:
        yield
    finally:
        complexes.simplify = simplify
