"""The seeded corpus (`corpus.py`) gives one committed digest under two
hash seeds, each in its own child process, both run at once.

This is the one test that sets `PYTHONHASHSEED`: a check that output
does not follow the hash seed is a family of the corpus.  The seeds
are 0 and 2 because monoid sums sorted by repr, not by point key, come
out in one order under seeds 0 and 1 and in another under 2.

The child imports tamebox from the directory this process imported it
from.  An intended change of output edits `DIGEST`, and the change log
says why, as for the golden digests of `test_cli.py`."""

import contextlib
import os
import subprocess
import sys

import tamebox

DIGEST = "a630f0abe478820a02e3883bc0c32752b95a3e686a3c4b1184713535b936ea89"

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    tamebox.__file__)))
CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.py")


def test_corpus_digest_under_two_hash_seeds():
    with contextlib.ExitStack() as stack:
        children = [stack.enter_context(subprocess.Popen(
            [sys.executable, CORPUS],
            env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            for seed in ("0", "2")]
        done = []
        for child in children:
            try:
                out, err = child.communicate(timeout=300)
            except subprocess.TimeoutExpired:
                for other in children:
                    other.kill()
                raise
            done.append((child.returncode, out.strip(), err))
    assert done == [(0, DIGEST, "")] * 2
