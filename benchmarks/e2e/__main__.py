"""``python3 -m benchmarks.e2e`` — same entry as ``run.py``."""

import sys

from .run import main

if __name__ == "__main__":
    sys.exit(main())
