"""``python -m cavray``: the ``cavray`` command."""

import sys

from .cli import main

sys.exit(main())
