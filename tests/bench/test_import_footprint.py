"""The paper path loads neither numpy nor the process pool.

The Fig. 5 grid and the Andrew runs draw no random number and start no
worker process, so importing what the repository benchmark imports and
running one point of each must leave ``numpy`` and
``concurrent.futures`` unloaded (together some 14 MB of resident
memory).  The check runs in a fresh interpreter: the test session has
long since imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = r"""
import sys

sys.path.insert(0, "perfbench")
import suite  # everything the repository benchmark's workloads import

from repro.bench.experiments import fig5_bandwidth
from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig

HEAVY = ("numpy", "concurrent.futures")

fig5 = fig5_bandwidth(archs=("raidx",), client_counts=(2,),
                      workloads=("small_write",), cache=False)
assert fig5.rows[0]["mb_s"] > 0, fig5.rows
cluster = build_cluster(trojans_cluster(n=4), architecture="raidx")
andrew = AndrewBenchmark(cluster, 1, config=AndrewConfig(n_dirs=2, files_per_dir=2))
assert andrew.run().total > 0
loaded = [m for m in HEAVY if m in sys.modules]
assert not loaded, f"paper path loaded {loaded}"

# An open-loop workload draws its schedule with numpy, so building one
# must load it: the check above is not vacuous.
suite.OpenLoopWorkload(cluster, rate_ops_per_s=10.0)
assert "numpy" in sys.modules
print("ok")
"""


def test_paper_path_loads_neither_numpy_nor_the_process_pool():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
