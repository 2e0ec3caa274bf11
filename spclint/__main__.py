"""``python -m spclint``: see :mod:`spclint.cli`."""

import sys

from .cli import main

sys.exit(main())
