"""What building a chip, and importing the package, cost the process.

A chip allocates only what its run touches: a cache set is made on its
first insert and a NoC route on its first message, so a 256-core chip
is small before its first event.  numpy and networkx are imported only
by the two workloads that use them, OCEAN's reference check and
UNSTRUCTURED's mesh generator, so importing the package, its CLI or its
workload catalogue loads neither.
"""

import subprocess
import sys
import tracemalloc

from repro.chip.cmp import CMP
from repro.experiments.runner import paper_config


def test_package_import_loads_neither_numpy_nor_networkx():
    code = ("import sys, repro, repro.cli, repro.workloads; "
            "print(sorted({'numpy', 'networkx'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_256_core_chip_builds_in_under_4_mb():
    # A small chip first, so the modules are imported outside the
    # measurement.
    CMP(paper_config(4), barrier="gl")
    tracemalloc.start()
    try:
        chip = CMP(paper_config(256), barrier="gl")
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chip.num_cores == 256
    # An eager array of every cache set made this 21 MB.
    assert allocated < 4 * 2**20
