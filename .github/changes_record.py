#!/usr/bin/env python3
"""One record per PR: every `PR n:` commit subject (n >= 1) in `git log`
has a `- PR n` line in CHANGES.md, and every entry numbered FIRST_CAPPED
or later fits in 1 KB (run detail belongs in EXPERIMENTS.md). Needs the
full history (`fetch-depth: 0`).

Usage: python3 .github/changes_record.py [path/to/CHANGES.md]
"""

import re
import subprocess
import sys

LIMIT = 1024
FIRST_CAPPED = 25


def main() -> int:
    changes = sys.argv[1] if len(sys.argv) > 1 else "CHANGES.md"
    log = subprocess.run(
        ["git", "log", "--format=%s"], capture_output=True, text=True, check=True
    ).stdout
    merged = {int(m.group(1)) for m in re.finditer(r"^PR (\d+):", log, re.M)} - {0}
    entries: dict[int, int] = {}
    with open(changes, encoding="utf-8") as f:
        for line in f:
            m = re.match(r"- PR (\d+)\b", line)
            if m:
                n = int(m.group(1))
                entries[n] = max(entries.get(n, 0), len(line.rstrip("\n").encode()))
    errors = [f"PR {n}: merged, but {changes} has no '- PR {n}' line"
              for n in sorted(merged - entries.keys())]
    errors += [f"PR {n}: its {changes} entry is {size} bytes, over {LIMIT}"
               for n, size in sorted(entries.items()) if n >= FIRST_CAPPED and size > LIMIT]
    for e in errors:
        print(e)
    if errors:
        return 1
    print(f"{changes}: a record for each of {len(merged)} merged PRs; "
          f"entries from PR {FIRST_CAPPED} on within {LIMIT} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
