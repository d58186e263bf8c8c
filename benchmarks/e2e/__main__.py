"""``python -m benchmarks.e2e`` — the same program as ``run.py``."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
