"""python -m locaut: the same command line as the locaut console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
