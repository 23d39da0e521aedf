"""Entry point: ``python -m benchmarks.e2e`` (see README.md)."""

import sys
import time

# Set-up time counts from here: importing the program is part of it.
_STARTED = time.perf_counter()

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(started=_STARTED))
