"""`python -m gaudin` runs the same command line as the `gaudin` script."""

import sys

from .harness_cli import main

sys.exit(main())
