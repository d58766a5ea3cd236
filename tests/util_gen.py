"""Randomized AST builders, and a deadline for one block, shared across
the test suite."""

import contextlib
import signal
import threading
from functools import lru_cache

import hypothesis.strategies as st

from condjust.syntax import (
    And, App, Atom, Bang, Box, Constant, Counterfactual, Dialect, Just,
    MatImp, Neg, Pair, RelCf, RelImp, Sum, Variable,
)


@lru_cache(maxsize=None)
def ast_strategies(dialect, atom_names=("p", "q", "r", "p0")):
    """(term, formula) hypothesis strategies producing dialect-legal trees.

    Accepts (dialect, atom_names) packed as one tuple too, so parametrized
    callers can pass a single hashable key.
    """
    if isinstance(dialect, tuple):
        dialect, atom_names = dialect

    formula = st.deferred(lambda: _formula)

    if dialect is Dialect.JRC:
        term = st.recursive(
            st.builds(Variable, st.sampled_from(["x", "y", "z", "s", "t"])),
            lambda ch: st.builds(Sum, ch, ch),
            max_leaves=3,
        )
    else:
        leaf = st.one_of(
            st.builds(Variable, st.sampled_from(["x", "y", "z", "s", "t"])),
            st.builds(Constant, st.sampled_from(["c", "c1", "c2", "c_ax"])),
        )

        def extend(ch):
            opts = [st.builds(App, ch, ch), st.builds(Sum, ch, ch), st.builds(Bang, ch)]
            if dialect is Dialect.LPCint:
                opts.append(st.builds(Pair, ch, formula))
            return st.one_of(opts)

        term = st.recursive(leaf, extend, max_leaves=3)

    atom = st.builds(Atom, st.sampled_from(list(atom_names)))

    def fext(ch):
        opts = [st.builds(Neg, ch), st.builds(And, ch, ch), st.builds(Just, term, ch)]
        if dialect is Dialect.JRC:
            opts += [st.builds(RelImp, ch, ch), st.builds(RelCf, ch, ch)]
        else:
            opts += [st.builds(MatImp, ch, ch), st.builds(Counterfactual, ch, ch)]
        if dialect is Dialect.L:
            opts.append(st.builds(Box, ch))
        return st.one_of(opts)

    _formula = st.recursive(atom, fext, max_leaves=6)
    return term, _formula


@contextlib.contextmanager
def within_seconds(seconds: float):
    """Raise TimeoutError in the block once it has run for seconds, so a
    walk that goes exponential fails instead of hanging.  The timer is
    SIGALRM's, so off the main thread, or where there is no SIGALRM, the
    block runs without a deadline."""
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"the block ran past {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
