"""End-to-end + per-layer benchmark for the DCA stack.

Everything here measures the program from outside: workloads are built
through ``repro``'s public entry points, timed around ``run()``, and the
per-layer breakdown comes from wrapping public methods at class level
(:mod:`e2e_bench.trace`).  See ``README.md`` for what each number means.
"""

import os

#: The checkout the package sits in: ``src/`` is the program under test.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
