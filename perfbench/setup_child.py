"""Child process that measures set-up: a cold ``import apackets.cli``, then
one ``parse_workspace`` of every workspace text in the JSON list on stdin.

Prints ``{"import_s": ..., "parse_s": ...}``. Needs ``src`` on ``PYTHONPATH``.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import apackets.cli  # noqa: E402

import_s = perf_counter() - start


def main() -> None:
    texts = json.load(sys.stdin)
    start = perf_counter()
    for text in texts:
        apackets.cli.parse_workspace(text)
    parse_s = perf_counter() - start
    print(json.dumps({"import_s": import_s, "parse_s": parse_s}))


if __name__ == "__main__":
    main()
