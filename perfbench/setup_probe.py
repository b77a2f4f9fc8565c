"""Set-up a fresh hypoflow process pays before any command runs.

    python3 perfbench/setup_probe.py CONFIG

imports hypoflow from the checkout's `src`, parses CONFIG the way the
command line does and builds its grid, then exits. `run.py` times this
script from spawn to exit.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from hypoflow import cli  # noqa: E402
from hypoflow.phase_space import build_grid  # noqa: E402

if __name__ == "__main__":
    build_grid(cli._grid_from_config(cli._load_config(sys.argv[1])))
