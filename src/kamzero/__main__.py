"""``python -m kamzero``: the command line of ``kamzero.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
