"""``python -m gpcdec``: the ``gpcdec`` console command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
