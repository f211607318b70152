#!/usr/bin/env python3
"""Lists module-level `pub` items of the product crates that nothing uses.

An item (a column-0 `pub fn`, `struct`, `enum`, `trait`, `const`,
`static`, `type` or `mod` under `crates/*/src/`) counts as used when its
name appears in the non-test code of another file: another source file
of any crate, `src/`, `examples/` or anything under `ncbench/`. Test
code never counts (`tests/` directories and everything after a file's
first column-0 `#[cfg(test)]`), so an item only a test reaches is listed.
Neither does a `pub use` re-export: it names an item without using it.
A type named in a `pub` signature or field of its own file counts as used
through that signature. `crates/shims` (stand-ins for external crates)
and `crates/bench` (the figure harness; its binaries are its users) are
not product crates.

Exits 1 if any listed item is missing from ALLOWED, or if an ALLOWED
entry is no longer listed (a stale entry). Run from the repository root:

    python3 .github/unreferenced_pub.py
"""

import re
import subprocess
import sys
from collections import defaultdict

# item name -> why it stays although no product code references it.
ALLOWED = {
    "edmonds_karp": "dinic's oracle in flowgraph's flow_properties",
    "min_cut": "the max-flow = min-cut duality check in flow_properties",
    "check_feasible": "the rounding path's feasibility oracle in deploy's property tests",
    "PlainReceiver": "the plaintext sink dataplane's decoder_vnf_delivery test delivers into",
    "NC_MAGIC": "the data header's magic byte, which relay's parse_robustness and socket_edges tests forge frames from",
    "NC_VERSION": "the data header's version byte, forged the same way by those tests",
}

ITEM = re.compile(
    r"^pub\s+(?:const\s+fn|unsafe\s+fn|fn|struct|enum|trait|const|static|type|mod)\s+(\w+)",
    re.M,
)
# A re-export, to its semicolon (it may span lines).
REEXPORT = re.compile(r"^[ \t]*pub(?:\([^)]*\))?\s+use\b[^;]*;", re.M)
# A `pub` declaration up to its body or terminator: a signature or field.
SIGNATURE = re.compile(r"^[ \t]*pub\s[^{;]*", re.M)
IDENT = re.compile(r"[A-Za-z_]\w*")


def non_test(path):
    if re.match(r"(crates/[^/]+/)?tests/", path):
        return ""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    cut = re.search(r"^#\[cfg\(test\)\]", text, re.M)
    return REEXPORT.sub("", text[: cut.start()] if cut else text)


def main():
    paths = subprocess.run(
        ["git", "ls-files", "*.rs"], capture_output=True, text=True, check=True
    ).stdout.split()
    paths = [p for p in paths if not p.startswith("crates/shims/")]
    code = {p: non_test(p) for p in paths}
    users = defaultdict(set)
    for path, text in code.items():
        for word in set(IDENT.findall(text)):
            users[word].add(path)

    listed = {}
    for path in paths:
        if not re.match(r"crates/(?!shims/|bench/)[^/]+/src/", path):
            continue
        text = code[path]
        for m in ITEM.finditer(text):
            name = m.group(1)
            if users[name] - {path}:
                continue
            named = re.compile(r"\b%s\b" % re.escape(name))
            if any(
                s.start() != m.start() and named.search(s.group(0))
                for s in SIGNATURE.finditer(text)
            ):
                continue
            listed[name] = "%s:%d" % (path, text.count("\n", 0, m.start()) + 1)

    failed = False
    for name, where in sorted(listed.items(), key=lambda kv: kv[1]):
        if name in ALLOWED:
            print("allowed  %s: %s (%s)" % (where, name, ALLOWED[name]))
        else:
            print("UNUSED   %s: pub %s is referenced by no other file's product code" % (where, name))
            failed = True
    for name in sorted(set(ALLOWED) - set(listed)):
        print("STALE    allowlist entry %s: it is referenced now, drop the entry" % name)
        failed = True
    if failed:
        print("delete the item, make it private, or add it to ALLOWED with a reason")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
