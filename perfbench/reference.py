"""A fixed job that measures how fast the host runs right now.

The benchmark runs it as a child process between the measured CLI commands
and scales each command's wall time by it (see ``Spawner.measured`` in
run.py).  It uses no hallguard code, so a change to the package cannot move
it.  Its work is a small version of what a CLI command does: interpreter
start-up, ``import numpy``, a JSON round trip, a pure-Python loop over dicts
and strings, and small numpy operations in a Python loop.

    python3 perfbench/reference.py
"""

import json

import numpy as np

rows = [{"id": f"r{i}", "text": "answer " * (i % 7), "score": i / 7.0} for i in range(12000)]
decoded = json.loads(json.dumps(rows))
tally: dict[str, float] = {}
for row in decoded:
    for word in row["text"].split():
        tally[word] = tally.get(word, 0.0) + row["score"]

vectors = np.random.default_rng(0).normal(size=(70, 64))
total = 0.0
for a in vectors:
    for b in vectors:
        total += float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))

if not tally or total != total:
    raise SystemExit(1)
