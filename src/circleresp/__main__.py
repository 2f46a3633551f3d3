"""``python -m circleresp --config FILE``: the command-line front end, :func:`circleresp.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
