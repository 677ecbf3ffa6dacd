"""`python -m latticedress`: the same entry point as the `latticedress` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
