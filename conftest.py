"""Keep test runs from writing bytecode caches into the source tree.

A tree that holds ``__pycache__`` imports faster than one compiled afresh,
so a benchmark run in a tested tree would not be comparable with one run
in an untested tree.  The environment variable carries the setting to the
CLI processes the tests start.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
