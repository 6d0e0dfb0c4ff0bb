"""One benchmark workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py '<json config>'

The config names the workload, seed, seconds, trace flag, mode ("setup" or
"measure") and a work directory. The process times `import irlsvm`, builds
the workload's inputs from the seed, then runs rounds of the workload for
the given seconds, timing each call into irlsvm.cli.main or irlsvm.fit and
checking every output with reference.py. It prints one JSON line.
Nothing but the standard library is imported before the timed import.
"""

from __future__ import annotations

import json
import sys
import time


def main(config):
    start = time.perf_counter()
    import irlsvm
    import irlsvm.cli

    import_s = time.perf_counter() - start

    import workloads

    return workloads.run(config, irlsvm, import_s)


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
