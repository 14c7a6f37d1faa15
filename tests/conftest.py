import multiprocessing
import os

import pytest


@pytest.fixture
def failing_in():
    """``failing_in(real, where, what)`` wraps ``real`` so that it raises
    ValueError("<what> failed in the <where>") in the calling process
    (where="caller") or in a forked worker (where="worker").  The other
    side's calls first wait, for up to 30 s, until the failing side has
    failed, so the error comes from where it should however the tasks are
    claimed (a worker could otherwise take every task before the caller
    takes one)."""
    def make(real, where, what):
        caller = os.getpid()
        failed = multiprocessing.get_context("fork").Event()

        def wrapper(*args, **kwargs):
            in_caller = os.getpid() == caller
            if in_caller == (where == "caller"):
                failed.set()
                raise ValueError(f"{what} failed in the {where}")
            if not failed.wait(30):
                failed.set()  # nothing failed: stop holding this side
            return real(*args, **kwargs)
        return wrapper
    return make
