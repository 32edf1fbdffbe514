"""Set-up probe, run in a fresh interpreter by ``run.py``.

Times importing ``carleman.cli``, loading every config of a workload and
building its grid and coefficient field, and prints the seconds taken.

    python3 bench/setup_probe.py <src dir> <config.yaml> [<config.yaml> ...]
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from carleman import cli  # noqa: E402

for path in sys.argv[2:]:
    cfg = cli.load_config(path)
    grid = cli.build_grid_from(cfg)
    cli.build_coefficients_from(cfg, grid)
    grid.space_points  # noqa: B018  (materialise the node coordinates)

print(repr(time.perf_counter() - start))
