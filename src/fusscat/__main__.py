"""python -m fusscat: the command line of fusscat.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
