"""python -m qmele: the batch command-line front end (qmele.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
