"""`python -m rtmotion`: the rtmotion command line."""

import sys

from rtmotion.cli import main

if __name__ == "__main__":
    sys.exit(main())
