"""`python -m tauprimes ...` runs the CLI, as the installed `tauprimes` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
