"""The normal-form certificate verifier, kept as a test oracle.

This is the verifier `tamebox.opalg` used before steps were checked by
evaluation: every step rebuilds the next (or, backwards, this) chain
element with `OperadElement.precompose`, which normalizes each slot of
the composition and checks that the slots stay disjoint, and compares
it with the recorded element by structural equality of normal forms.
It is slow and serves only to cross-check `opalg.verify_certificate`.
"""

from tamebox.errors import TameboxError
from tamebox.injections import QuasiAffineInjection


def verify_certificate(cert, phi=None, psi=None):
    """Exact verification: one constraint set per slot, every move
    fixes its constraint set, every step joins consecutive elements,
    endpoints match when given.

    Returns (ok, failing step index or None, reason)."""
    if len(cert.constraints) != cert.n:
        return False, None, "constraint count mismatch"
    chain = cert.chain()
    for e in chain:
        if e.arity != cert.n:
            return False, None, "arity mismatch in chain"
        if not all(isinstance(s, QuasiAffineInjection) for s in e.slots):
            return False, None, "chain element with inexact slots"
    for idx, step in enumerate(cert.steps):
        cur, nxt = chain[idx], chain[idx + 1]
        if len(step.move) != cert.n:
            return False, idx, "move arity mismatch"
        for f, A in zip(step.move, cert.constraints):
            if not isinstance(f, QuasiAffineInjection):
                return False, idx, "inexact move"
            if not f.fixes_pointwise(A):
                return False, idx, "move fails to fix a constraint set"
        try:
            if step.direction == "fwd":
                if cur.precompose(step.move) != nxt:
                    return False, idx, "forward step does not reach the next element"
            elif step.direction == "bwd":
                if nxt.precompose(step.move) != cur:
                    return False, idx, "backward step does not recover this element"
            else:
                return False, idx, "unknown direction"
        except TameboxError:
            return False, idx, "step evaluation failed"
    if phi is not None and chain[0] != phi:
        return False, None, "start does not match"
    if psi is not None and chain[-1] != psi:
        return False, None, "end does not match"
    return True, None, "ok"
