"""One measured run in a fresh process.

The parent (:mod:`bench.run`) starts ``python3 -m bench.child <job>``
for every repeat, because reruns inside one process drift (warm
intern tables, a grown heap) while fresh processes repeat.  Memory, CPU
and counters are therefore read here, in the process that did the work,
and handed back as one JSON line on standard output.
"""

from time import perf_counter

#: Taken before the program is imported: imports are part of set-up.
T0 = perf_counter()

import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from bench import KINDS  # noqa: E402


def main() -> None:
    # Asked to end, unwind: leaving their ``with`` blocks is what reaps
    # the node processes and the calibration helper.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    job = json.loads(sys.argv[1])
    print(json.dumps(KINDS[job["workload"]].child(job, T0)))


if __name__ == "__main__":
    main()
