"""Entry point for ``python -m pbwdegen``; same as the ``pbwdegen`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
