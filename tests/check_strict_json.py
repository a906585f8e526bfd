"""Exit with an error unless every file named on the command line is strict JSON.

json.load accepts the bare tokens NaN, Infinity and -Infinity, which strict
parsers reject, so the first one found is reported as an error. Not a test
module: run it as `python tests/check_strict_json.py REPORT.json ...`.
"""

import json
import sys

if __name__ == "__main__":
    for path in sys.argv[1:]:
        with open(path) as fh:
            json.load(fh, parse_constant=lambda token: sys.exit(f"{path}: not strict JSON: {token}"))
