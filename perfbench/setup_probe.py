"""One set-up measurement in a fresh interpreter.

Times importing the pshdef modules a request reaches, then building the
workload's inputs (the seeded pass generator and the parsed expected
table).  Prints one JSON line: {"import_s": ..., "inputs_s": ...}.

    python3 perfbench/setup_probe.py SRC_DIR WORKLOAD SEED
"""

import json
import sys
import time


def main() -> int:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pshdef.construct  # noqa: F401
    import pshdef.cr  # noqa: F401
    import pshdef.dominance  # noqa: F401
    import pshdef.exprparse  # noqa: F401
    import pshdef.realconvex  # noqa: F401
    import pshdef.verify  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    next(iter(workloads.build(workload, seed).passes()))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
