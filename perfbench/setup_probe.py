"""Fresh-process set-up: import shrinkca, then load and validate every spec file.

Usage: python3 setup_probe.py SRC_DIR SPEC.json...

Prints "ready" once the first request could be sent; the caller times the
process from its start to that line.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from shrinkca import GeneratorSpec, cli  # noqa: E402,F401

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        GeneratorSpec.from_json(json.load(fh))
print("ready", flush=True)
