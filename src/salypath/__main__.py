"""``python -m salypath``: the same command line as the ``salypath`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
