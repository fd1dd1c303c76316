"""Run the fusscat command line from the source tree.

`python -m fusscat.cli` does nothing (the module has no main guard) and
the console script needs an installed package, so the benchmark starts
the CLI as  python3 perfbench/cli_launcher.py <arguments>.
"""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from fusscat.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
