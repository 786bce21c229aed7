#!/usr/bin/env python3
"""Knob inventory check: docs/KNOBS.md must list exactly the MPICD_*
environment variables the code reads.

The set of "MPICD_..." string literals in src/ and bench/ (C++ sources
and headers) must equal the set of names in the table of docs/KNOBS.md.
Each row's class must be one of the three the document defines, and each
file named in its last column must contain the name as a string literal.

Usage:
    check_knobs.py [repo-root]

Exit status 0 when the table and the code agree, 1 otherwise. Wired into
ctest as `check_knobs` (label lint).
"""

import os
import re
import sys

CLASSES = {
    "model parameter",
    "paper experiment dimension",
    "observability/deployment",
}
LITERAL = re.compile(r'"(MPICD_[A-Z0-9_]+)')
ROW = re.compile(r"^\|\s*`(MPICD_[A-Z0-9_]+)`\s*\|([^|]*)\|([^|]*)\|([^|]*)\|\s*$")
SOURCE_EXT = (".cpp", ".hpp", ".h", ".c")


def code_literals(root):
    """name -> set of repo-relative files containing "NAME as a literal."""
    found = {}
    for top in ("src", "bench"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for fn in files:
                if not fn.endswith(SOURCE_EXT):
                    continue
                path = os.path.join(dirpath, fn)
                with open(path, "r", encoding="utf-8") as f:
                    text = f.read()
                rel = os.path.relpath(path, root)
                for name in LITERAL.findall(text):
                    found.setdefault(name, set()).add(rel)
    return found


def table_rows(root):
    """name -> (class, [files]); errors for malformed or duplicate rows."""
    rows, errors = {}, []
    with open(os.path.join(root, "docs", "KNOBS.md"), "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.startswith("| `MPICD_"):
                continue
            m = ROW.match(line.rstrip("\n"))
            if m is None:
                errors.append("KNOBS.md:%d: malformed row" % lineno)
                continue
            name, cls, _default, files = (g.strip() for g in m.groups())
            if name in rows:
                errors.append("KNOBS.md:%d: %s listed twice" % (lineno, name))
            if cls not in CLASSES:
                errors.append("KNOBS.md:%d: %s has unknown class '%s'"
                              % (lineno, name, cls))
            rows[name] = (cls, re.findall(r"`([^`]+)`", files))
    return rows, errors


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    code = code_literals(root)
    rows, errors = table_rows(root)
    for name in sorted(set(code) - set(rows)):
        errors.append("%s is read in %s but missing from docs/KNOBS.md"
                      % (name, ", ".join(sorted(code[name]))))
    for name in sorted(set(rows) - set(code)):
        errors.append("%s is in docs/KNOBS.md but no longer read in src/ "
                      "or bench/" % name)
    for name, (_cls, files) in sorted(rows.items()):
        if not files:
            errors.append("%s: no file listed" % name)
        for rel in files:
            if rel not in code.get(name, set()):
                errors.append("%s: listed file %s does not read it"
                              % (name, rel))
    if errors:
        for e in errors:
            print("check_knobs: " + e)
        return 1
    print("check_knobs: %d knobs, table matches the code" % len(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
