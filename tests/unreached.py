"""The statements of `src/tamebox` that a Tier-1 run never executes.

The script copies `src/` to a temporary directory, with a
`sitecustomize.py` beside the package that traces it with
`sys.settrace`, in every thread, and runs Tier-1 on that copy.  The
tests that start child Python processes put the directory the package
was imported from on their path, so the children load the tracer too.
Each process writes the lines it executed when it exits.

A statement counts as executed when any of its own lines is, the lines
of the statements nested in it aside; docstrings, and statements that
compile to no code, are not counted.  Each run of consecutive
statements of one block that never runs is listed once, as
`module:line: its first line`, and the statements nested in it are
not.  `ALLOWED` names the statements that only an internal error
reaches, each with its reason; they are listed too, marked as
allowed.

Run it from the root of the repository, with no coverage package:

    python tests/unreached.py

It exits 0 when every statement it lists is allowed, and 1 otherwise,
or when the test run itself fails.  It is not part of Tier-1: the trace
makes the run about three times slower.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tamebox")

# (module, start of a statement's first line, stripped, why no test
# reaches it): only a fault of the library does
ALLOWED = [
    ("opalg.py", "raise SearchExhausted(",
     "the chain builder's own certificate failing verification"),
    ("selftest.py", "tally.fail(",
     "a law suite reporting a law the library breaks"),
]

TRACER = '''\
import atexit, json, os, sys, threading

_OUT = os.environ.get("TAMEBOX_TRACE_DIR")
_PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "tamebox") + os.sep
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PACKAGE):
        return _line
    return None


def _dump():
    lines = sorted((os.path.basename(f), n) for f, n in _hits)
    path = os.path.join(_OUT, f"{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(lines, out)


if _OUT:
    sys.settrace(_call)
    threading.settrace(_call)
    atexit.register(_dump)
'''


def traced_run(args):
    """The lines executed per module over a test run on a traced copy of
    the package, the number of processes traced, and pytest's status."""
    hits = {}
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "src"), os.path.join(tmp, "trace")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        os.mkdir(out)
        with open(os.path.join(src, "sitecustomize.py"), "w",
                  encoding="utf-8") as f:
            f.write(TRACER)
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *args],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=src,
                               TAMEBOX_TRACE_DIR=out)).returncode
        dumps = os.listdir(out)
        for name in dumps:
            with open(os.path.join(out, name), encoding="utf-8") as f:
                for module, line in json.load(f):
                    hits.setdefault(module, set()).add(line)
    return hits, len(dumps), status


def code_lines(code):
    """The lines the code object, and those nested in it, have code on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def is_docstring(node, parent):
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and node is parent.body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def blocks(node):
    """The blocks of statements nested one level in node: its bodies,
    and those of its exception handlers."""
    for field in ("body", "orelse", "finalbody"):
        body = getattr(node, field, None)
        if isinstance(body, list):
            yield body
    for handler in getattr(node, "handlers", ()):
        yield handler.body


def own_lines(node):
    """The span of a statement without those of its nested blocks."""
    own = set(range(node.lineno, node.end_lineno + 1))
    for body in blocks(node):
        for inner in body:
            own -= set(range(inner.lineno, inner.end_lineno + 1))
    for handler in getattr(node, "handlers", ()):
        own -= set(range(handler.lineno, handler.end_lineno + 1))
    return own


def unreached_runs(parent, compiled, hits):
    """The first statement of each run of consecutive statements of a
    block that no test executes, in the blocks of parent and, below the
    statements that run, in theirs."""
    found = []
    for body in blocks(parent):
        previous = True
        for node in body:
            if is_docstring(node, parent):
                continue
            own = own_lines(node)
            reached = bool(own & hits) or not own & compiled
            if own & compiled:
                if not reached and previous:
                    found.append(node)
                previous = reached
            if reached:
                found += unreached_runs(node, compiled, hits)
    return found


def unreached(module, hits):
    """Each run of statements of a module of the package that compile
    to code and never run, by its first one: (line, first line)."""
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    compiled = code_lines(compile(text, module, "exec"))
    return sorted((node.lineno, lines[node.lineno - 1].strip())
                  for node in unreached_runs(ast.parse(text), compiled, hits))


def allowed(module, first):
    """Why no test reaches the statement, if it is on the allowlist."""
    return next((reason for mod, prefix, reason in ALLOWED
                 if mod == module and first.startswith(prefix)), None)


def main(args):
    hits, processes, status = traced_run(args)
    print(f"traced {processes} processes; pytest exit status {status}")
    bad = 0
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        for line, first in unreached(module, hits.get(module, set())):
            reason = allowed(module, first)
            if reason is None:
                bad += 1
                print(f"{module}:{line}: {first}")
            else:
                print(f"{module}:{line}: {first}  [allowed: {reason}]")
    print(f"{bad} unreached statements outside the allowlist")
    return 0 if bad == 0 and status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
