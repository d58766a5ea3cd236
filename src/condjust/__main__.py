"""python -m condjust: the condjust command line, exiting with its code."""

import sys

from condjust.cli import main

sys.exit(main())
