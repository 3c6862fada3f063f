"""Start the singk3 CLI as the `singk3 = "singk3.cli:main"` console script does.

The package is not installed in a checkout and singk3.cli has no __main__
guard, so `python -m singk3.cli` would print nothing.  The benchmark runs
`python3 perfbench/launcher.py <verb> ...` with PYTHONPATH=src instead.
"""

import sys

from singk3.cli import main

if __name__ == "__main__":
    sys.exit(main())
