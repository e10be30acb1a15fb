"""``python -m haarshift``: the command-line interface."""

import sys

from .cli import main

__all__: list[str] = []

if __name__ == "__main__":
    sys.exit(main())
