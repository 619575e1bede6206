"""`python -m protoforge`: the command-line front end of `protoforge.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
