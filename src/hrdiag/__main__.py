"""The hrdiag command: ``python -m hrdiag`` and the installed ``hrdiag`` script."""

import os
import sys

# Read by OpenBLAS as numpy loads (numpy's wheels', 1.x's too): above ~110,000 rows its threads
# split a one-column weight gradient's sum, whose bits, and so a model's, then follow their count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
from hrdiag.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
