"""``python -m star154``: the same command as the ``star154`` console script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
