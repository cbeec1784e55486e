"""Set-up of one workload in a fresh process, timed by run.py.

Imports heatlab (numpy and scipy included) from this checkout, loads the
workload's scenario and sweep files and builds their grids and curves:

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports heatlab)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name](ROOT, seed, workdir, counter=None).build_inputs()
