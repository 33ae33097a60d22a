"""Set-up time of one fresh interpreter: import facsec and facsec.cli (numpy
included), then parse every scenario text of the workload's input pool.

Usage: python3 setup_probe.py <src dir> <texts file>, the texts separated by
NUL characters. Prints the seconds taken. Only sys and time are imported
before the clock starts, so the facsec import pays for all it needs.
"""

import sys
import time

src, texts_path = sys.argv[1], sys.argv[2]
with open(texts_path, encoding="utf-8") as fh:
    texts = [text for text in fh.read().split("\0") if text]
sys.path.insert(0, src)

t0 = time.perf_counter()
import facsec  # noqa: E402
import facsec.cli  # noqa: E402,F401

for text in texts:
    facsec.parse_scenario(text)
elapsed = time.perf_counter() - t0

if not facsec.__file__.startswith(src):
    sys.exit(f"facsec imported from {facsec.__file__}, not from {src}")
print(repr(elapsed))
