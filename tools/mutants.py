#!/usr/bin/env python3
"""The standing mutation suite: each mutant in test/mutants/MUTANTS must
make `dune build && dune runtest` fail.

Every mutant is applied to a fresh copy of the working tree in a
temporary directory (never to the tree itself), then the copy is built
and tested.  A mutant is killed when that run fails and its output names
the suite or golden the entry expects; otherwise it survived, and the
script exits 1.  Entries declared `survives` (with their reason) are
skipped unless --survivors is given, in which case they are run and
expected to survive.

    python3 tools/mutants.py                  # every mutant, about 20 s each
    python3 tools/mutants.py --only NAME ...  # the named mutants
    python3 tools/mutants.py --survivors      # the declared survivors too

A `find` text that does not occur exactly once in its file is refused
before anything is built; tools/test_mutants.py checks that rule under
`dune runtest`.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS = os.path.join(ROOT, "test", "mutants", "MUTANTS")
TIMEOUT = 900  # seconds per mutant; a run that hangs this long is a kill
FIELDS = ("name", "file", "find", "replace", "expect", "survives")
# Left out of the copy: build outputs, version control, perfbench scratch.
SKIP = {"_build", ".git", "_work", "__pycache__"}


class MutantError(Exception):
    pass


def unescape(text):
    """`\\n` is a newline and `\\\\` a backslash; nothing else is special."""
    out, i = [], 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text) and text[i + 1] in "n\\":
            out.append("\n" if text[i + 1] == "n" else "\\")
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse(text):
    """The entries of a MUTANTS text, as dicts of their fields."""
    entries, cur = [], {}

    def close(lineno):
        if not cur:
            return
        for key in ("name", "file", "find", "replace"):
            if key not in cur:
                raise MutantError("entry ending at line %d has no %s" % (lineno, key))
        if ("expect" in cur) == ("survives" in cur):
            raise MutantError("mutant %s: give exactly one of expect and survives"
                              % cur["name"])
        entries.append(dict(cur))
        cur.clear()

    lines = text.split("\n")
    for lineno, line in enumerate(lines, 1):
        if line.startswith("#"):
            continue
        if line.strip() == "":
            close(lineno)
            continue
        key, sep, value = line.partition(": ")
        if not sep or key not in FIELDS:
            raise MutantError("line %d: expected `key: value` with key one of %s"
                              % (lineno, ", ".join(FIELDS)))
        if key in cur:
            raise MutantError("line %d: %s given twice" % (lineno, key))
        cur[key] = unescape(value) if key in ("find", "replace") else value
    close(len(lines))
    names = [e["name"] for e in entries]
    dups = sorted({n for n in names if names.count(n) > 1})
    if dups:
        raise MutantError("mutant names repeated: %s" % ", ".join(dups))
    return entries


def apply(source, find, replace, name="mutant"):
    """`source` with its one occurrence of `find` replaced; a `find` that
    occurs zero or several times is refused."""
    n = source.count(find)
    if n != 1:
        raise MutantError("%s: find text occurs %d times, not exactly once" % (name, n))
    return source.replace(find, replace)


def load(path):
    with open(path) as f:
        return parse(f.read())


def check_matches(entries, root, skip=None):
    """Refuse any entry but [skip] whose find text does not occur exactly
    once."""
    for e in entries:
        if e["name"] == skip:
            continue
        path = os.path.join(root, e["file"])
        if not os.path.isfile(path):
            raise MutantError("%s: no file %s" % (e["name"], e["file"]))
        with open(path) as f:
            apply(f.read(), e["find"], e["replace"], e["name"])


def failures(out):
    """What dune reports as failed: each `File "..."` error header with the
    source line under it (a test stanza's line names the test executable,
    a golden's header names the .expected file)."""
    lines = out.splitlines()
    return [line + "\n" + (lines[i + 1] if i + 1 < len(lines) else "")
            for i, line in enumerate(lines) if line.startswith('File "')]


def failed_name(failure):
    """A test stanza's executable, or the file of any other failure."""
    header, _, line = failure.partition("\n")
    path = header.split('"')[1]
    name = line.split("|", 1)[-1].strip(" )")
    if os.path.basename(path) == "dune" and name.startswith("test_"):
        return name
    return path


def copy_tree(src, dst):
    shutil.copytree(src, dst, symlinks=True,
                    ignore=lambda _dir, names: [n for n in names if n in SKIP])


def run_mutant(e, root, scratch):
    """('killed' | 'survived' | 'elsewhere', seconds, a one-line note)."""
    work = tempfile.mkdtemp(prefix="mutant-", dir=scratch)
    try:
        tree = os.path.join(work, "tree")
        copy_tree(root, tree)
        path = os.path.join(tree, e["file"])
        with open(path) as f:
            mutated = apply(f.read(), e["find"], e["replace"], e["name"])
        with open(path, "w") as f:
            f.write(mutated)
        start = time.time()
        # Its own process group, so that a timeout or an interrupt stops
        # every dune and test process of the run.
        # `dune runtest` runs even when `dune build` fails, so that the
        # report names every suite and golden that kills the mutant.
        # tools/test_mutants.py skips the applied entry, whose find text
        # the mutation has removed.
        proc = subprocess.Popen(
            ["sh", "-c", "dune build --root . 2>&1; b=$?; dune runtest --root . 2>&1 && exit $b"],
            cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True, env=dict(os.environ, ABIVM_MUTANT=e["name"]))
        try:
            out, _ = proc.communicate(timeout=TIMEOUT)
            code = proc.returncode
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            code = None
            if not isinstance(sys.exc_info()[1], subprocess.TimeoutExpired):
                raise
        out = out.decode("utf-8", "replace")
        secs = time.time() - start
        failed = failures(out)
        if code == 0:
            return "survived", secs, "every suite and golden passed"
        if code is None:
            return "killed", secs, "timed out after %d s (a hang counts as a kill)" % TIMEOUT
        names = ", ".join(failed_name(f) for f in failed) or "the build"
        if "expect" in e and not any(e["expect"] in f for f in failed):
            return "elsewhere", secs, "failed: " + names
        return "killed", secs, "failed: " + names
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants only")
    ap.add_argument("--survivors", action="store_true",
                    help="also run the declared survivors, expecting them to survive")
    ap.add_argument("--scratch", default=None, help="parent of the temporary copies")
    args = ap.parse_args(argv)

    try:
        entries = load(MUTANTS)
        check_matches(entries, ROOT)
    except MutantError as err:
        print("mutants: %s" % err, file=sys.stderr)
        return 2
    if args.only:
        unknown = set(args.only) - {e["name"] for e in entries}
        if unknown:
            print("mutants: unknown mutant(s) %s" % ", ".join(sorted(unknown)), file=sys.stderr)
            return 2
        entries = [e for e in entries if e["name"] in args.only]
    elif not args.survivors:
        entries = [e for e in entries if "expect" in e]

    bad = []
    for e in entries:
        status, secs, tail = run_mutant(e, ROOT, args.scratch)
        survivor = "survives" in e
        ok = (status == "survived") if survivor else (status == "killed")
        label = status if status != "elsewhere" else "killed, but not by " + e["expect"]
        print("%-28s %-4s %6.1f s  %s; %s" % (e["name"], "ok" if ok else "FAIL", secs, label,
                                              tail), flush=True)
        if not ok:
            bad.append(e["name"])
    if bad:
        print("mutants: %d of %d not as declared: %s" % (len(bad), len(entries), ", ".join(bad)))
        return 1
    print("mutants: all %d as declared" % len(entries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
