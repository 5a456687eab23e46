#!/usr/bin/env python3
"""Layering guard: src/ must form a layered DAG of libraries.

Each directory under src/ is one layer and builds one library,
lazyxml_<layer> (lazyxml_server_lib for server). A file may include
headers of its own layer or of a lower one, never of a higher one, and a
library may link only libraries of its own layer or lower ones. Run it
from anywhere:

    python3 tests/layering_test.py [--src DIR]

Exits 0 when every #include "..." and every target_link_libraries entry
respects the order below, and 1 with one line per offending edge
otherwise.
"""

import argparse
import pathlib
import re
import sys

# Bottom to top.
LAYERS = [
    "obs",
    "common",
    "btree",
    "xml",
    "join",
    "labeling",
    "core",
    "xmlgen",
    "query",
    "storage",
    "check",
    "server",
]

# (including file's layer, included header) -> why the upward edge stays.
EXCEPTIONS = {
    ("core", "check/database_check.h"):
        "header-only scrubber behind LazyDatabase::CheckInvariants and the "
        "LAZYXML_PARANOID_CHECKS hook; it reads core state only, so no "
        "library edge goes up",
}

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
LINK = re.compile(r"target_link_libraries\s*\(([^)]*)\)")


def violations(src):
    rank = {name: i for i, name in enumerate(LAYERS)}
    found = []
    files = sorted(p for p in src.rglob("*") if p.suffix in (".h", ".cc"))
    for path in files:
        layer = path.relative_to(src).parts[0]
        if layer not in rank:
            found.append(f"{path}: directory '{layer}' has no layer")
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = INCLUDE.match(line)
            if not m:
                continue
            header = m.group(1)
            target = header.split("/", 1)[0]
            if target not in rank or rank[target] <= rank[layer]:
                continue
            if (layer, header) in EXCEPTIONS:
                continue
            found.append(f"{path}:{lineno}: {layer} includes {header} "
                         f"(layer '{target}' is above '{layer}')")
    for cmake in sorted(src.glob("*/CMakeLists.txt")):
        layer = cmake.parent.name
        if layer not in rank:
            continue
        for m in LINK.finditer(cmake.read_text()):
            for lib in re.findall(r"\blazyxml_(\w+)", m.group(1)):
                target = lib[:-4] if lib.endswith("_lib") else lib
                if target in rank and rank[target] > rank[layer]:
                    found.append(f"{cmake}: {layer} links lazyxml_{lib} "
                                 f"(layer '{target}' is above '{layer}')")
    return found


def main():
    default_src = pathlib.Path(__file__).resolve().parent.parent / "src"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=pathlib.Path, default=default_src)
    args = parser.parse_args()
    found = violations(args.src)
    for line in found:
        print(line)
    if found:
        print(f"FAIL: {len(found)} edge(s) point up the layer order")
        return 1
    print(f"OK: {' -> '.join(LAYERS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
