"""Set-up of one fresh interpreter: import numpy, scipy.linalg, pelks, parse the configs.

    python3 perfbench/setup_probe.py <src dir> <config file>...

Prints one JSON line: the three import times, the monotonic clock
reading when the last config is parsed, which the caller compares with
its own reading taken before it started this interpreter, and the time
of hostspeed's loop run after that reading.
"""

import sys
import time

t0 = time.monotonic()
import numpy  # noqa: E402,F401

t1 = time.monotonic()
import scipy.linalg  # noqa: E402,F401

t2 = time.monotonic()
sys.path.insert(0, sys.argv[1])
import pelks  # noqa: E402
from pelks.config import load_config  # noqa: E402

t3 = time.monotonic()
for path in sys.argv[2:]:
    load_config(path)
done = time.monotonic()

import json  # noqa: E402

from hostspeed import calibrate  # noqa: E402

loop_s = calibrate()
print(
    json.dumps(
        {
            "numpy_s": t1 - t0,
            "scipy_s": t2 - t1,
            "pelks_s": t3 - t2,
            "done": done,
            "loop_s": loop_s,
            "pelks_file": pelks.__file__,
        }
    )
)
