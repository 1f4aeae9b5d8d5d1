#!/usr/bin/env python3
"""Checks the prose docs against the code (ctest label: cli).

Over README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md and
examples/serving/*.sh:

  * every --flag they mention must appear in the --help of one of the
    given binaries or of perfbench/run.py. Flags on a cmake or ctest
    command line belong to those tools and are skipped, by command name;
  * every repository path they cite must exist. A path counts as cited
    when its first component is a top-level directory of the repository
    or, as the docs abbreviate, a directory under src/. A path naming a
    binary resolves through its source (bench/fig3_histogram ->
    bench/fig3_histogram.cpp), a module through its .h or .cpp.

Usage: check_docs.py <repo root> <binary> ...
"""

import glob
import os
import re
import subprocess
import sys

FLAG = re.compile(r"(?<![\w-])--([A-Za-z][\w-]*)")
PATH = re.compile(r"(?<![\w./-])((?:[\w.-]+/)+[\w.*-]*)")
SEPARATORS = re.compile(r"`|&&|\|\||[;|()]|\$\(")
FOREIGN_COMMANDS = {"cmake", "ctest"}


def help_flags(root, binaries):
    commands = [[b, "--help"] for b in binaries]
    commands.append([sys.executable, os.path.join(root, "perfbench", "run.py"),
                     "--help"])
    flags = set()
    for command in commands:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=120, cwd=root)
        if result.returncode != 0:
            sys.exit("check_docs: %s --help exited %d"
                     % (command[-2], result.returncode))
        flags.update(FLAG.findall(result.stdout + result.stderr))
    return flags


def command_name(segment):
    """The command a shell segment runs: its first word that is not an
    environment assignment, without its directory."""
    for word in segment.split():
        if re.fullmatch(r"\w+=\S*", word) or word in ("$", ">"):
            continue
        return os.path.basename(word)
    return None


def mentioned_flags(lines):
    """Yields (line number, flag) for every flag not on a cmake or ctest
    command line. A command continues onto the next line after a
    trailing backslash or inside a code span left open."""
    carried = None
    in_span = False
    for number, line in enumerate(lines, 1):
        if line.lstrip().startswith("```"):
            carried, in_span = None, False
            continue
        command = None
        for index, segment in enumerate(SEPARATORS.split(line)):
            command = carried if index == 0 and carried else \
                command_name(segment)
            if command not in FOREIGN_COMMANDS:
                for flag in FLAG.findall(segment):
                    yield number, flag
        in_span ^= line.count("`") % 2 == 1
        continues = in_span or line.rstrip().endswith("\\")
        carried = command if continues else None


def path_roots(root):
    roots = {}
    for name in os.listdir(root):
        if (os.path.isdir(os.path.join(root, name)) and name != "out"
                and not name.startswith("build")
                and (not name.startswith(".") or name == ".github")):
            roots[name] = root
    src = os.path.join(root, "src")
    for name in os.listdir(src):
        if os.path.isdir(os.path.join(src, name)):
            roots.setdefault(name, src)
    return roots


def path_exists(base, path):
    full = os.path.join(base, path)
    if "*" in path:
        return bool(glob.glob(full))
    return any(os.path.exists(full + suffix) for suffix in ("", ".cpp", ".h"))


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    root = sys.argv[1]
    known = help_flags(root, sys.argv[2:])
    roots = path_roots(root)
    docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
    docs += sorted(os.path.relpath(p, root)
                   for p in glob.glob(os.path.join(root, "docs", "*.md")))
    docs += sorted(os.path.relpath(p, root) for p in glob.glob(
        os.path.join(root, "examples", "serving", "*.sh")))

    faults = []
    for doc in docs:
        with open(os.path.join(root, doc), encoding="utf-8") as f:
            lines = f.read().splitlines()
        for number, flag in mentioned_flags(lines):
            if flag not in known:
                faults.append("%s:%d: --%s is in no binary's --help"
                              % (doc, number, flag))
        for number, line in enumerate(lines, 1):
            for path in PATH.findall(line):
                path = path.rstrip(".")
                base = roots.get(path.split("/")[0])
                if base and not path_exists(base, path):
                    faults.append("%s:%d: cites missing path %s"
                                  % (doc, number, path))

    for fault in faults:
        print(fault)
    if faults:
        return 1
    print("check_docs: %d files agree with the code" % len(docs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
