"""Exit 0 when a perfbench result line is strict JSON whose "correct" is true.

Usage: python3 .github/perfbench_correct.py RESULT_LINE_FILE

json.load alone accepts NaN, Infinity and -Infinity, which json.dumps
prints for a float it cannot spell in JSON (say the median of no timed
calls); here they fail the check.
"""

import json
import sys


def reject(constant: str):
    raise ValueError(f"{constant} is not JSON")


with open(sys.argv[1]) as f:
    result = json.load(f, parse_constant=reject)
sys.exit(0 if result["correct"] is True else 1)
