#!/usr/bin/env python3
"""Unit test of tools/mutants.py's matching rule and of the MUTANTS file
(no builds): a find text must match exactly once, and every entry of
test/mutants/MUTANTS does against the current sources."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import mutants  # noqa: E402


def check(name, got, want):
    if got != want:
        raise SystemExit("test_mutants: %s: got %r, want %r" % (name, got, want))


def refused(name, thunk, needle):
    try:
        thunk()
    except mutants.MutantError as err:
        if needle not in str(err):
            raise SystemExit("test_mutants: %s: error %r lacks %r" % (name, str(err), needle))
        return
    raise SystemExit("test_mutants: %s: not refused" % name)


# exactly one occurrence is replaced; none or two are refused
check("one match", mutants.apply("a > 0.0 && b", "> 0.0", ">= 0.0"), "a >= 0.0 && b")
refused("no match", lambda: mutants.apply("a > 0.0", "> 1.0", "x"), "occurs 0 times")
refused("two matches", lambda: mutants.apply("x; x", "x", "y"), "occurs 2 times")
check("multi-line match", mutants.apply("f ();\n  g ()\n", "();\n  g", "();\n  h"), "f ();\n  h ()\n")

# a kill is what dune reports failed: a test stanza's line or a golden
out = """ok line
File "test/dune", line 27, characters 2-16:
27 |   test_deltajoin)
Testing `props'.
File "test/cli/calibrate.expected", line 1, characters 0-0:
"""
fs = mutants.failures(out)
check("two failures", len(fs), 2)
check("test named", any("test_deltajoin" in f for f in fs), True)
check("golden named", any("test/cli/calibrate.expected" in f for f in fs), True)
check("passing suite not named", any("props" in f for f in fs), False)
check("names", [mutants.failed_name(f) for f in fs], ["test_deltajoin", "test/cli/calibrate.expected"])
check("rule name", mutants.failed_name('File "bench/dune", lines 13-16:\n13 | (rule'), "bench/dune")

# escapes: \n is a newline, \\ a backslash, anything else is literal
check("unescape", mutants.unescape(r"a\nb\\n\t"), "a\nb\\n\\t")

entry = """name: m
file: lib/x.ml
find:   two spaces\\nnext
replace: y
expect: test_x.exe
"""
(e,) = mutants.parse("# a comment\n" + entry)
check("find keeps leading spaces", e["find"], "  two spaces\nnext")
check("expect", e["expect"], "test_x.exe")
refused("expect and survives", lambda: mutants.parse(entry + "survives: why\n"),
        "exactly one of expect and survives")
refused("neither", lambda: mutants.parse(entry.replace("expect: test_x.exe\n", "")),
        "exactly one of expect and survives")
refused("missing find", lambda: mutants.parse(entry.replace("find:   two spaces\\nnext\n", "")),
        "no find")
refused("unknown key", lambda: mutants.parse(entry + "why: x\n"), "expected `key: value`")
refused("repeated name", lambda: mutants.parse(entry + "\n" + entry), "names repeated")

# the suite itself: every entry matches exactly once in today's sources,
# but for the one tools/mutants.py has applied to this copy of the tree
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
suite = mutants.load(os.path.join(root, "test", "mutants", "MUTANTS"))
mutants.check_matches(suite, root, skip=os.environ.get("ABIVM_MUTANT"))
check("suite has killable mutants", sum(1 for m in suite if "expect" in m) >= 5, True)
print("test_mutants: ok (%d mutants)" % len(suite))
