"""``python -m bench run ...`` and ``python -m bench compare A B``."""

import sys

from . import compare, run

COMMANDS = {"run": run.main, "compare": compare.main}

if __name__ == "__main__":
    if sys.argv[1:2] and sys.argv[1] in COMMANDS:
        sys.exit(COMMANDS[sys.argv[1]](sys.argv[2:]))
    sys.exit("usage: python -m bench {run,compare} ...")
