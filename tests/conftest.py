import multiprocessing
import os

import pytest


@pytest.fixture
def failing_in():
    """``failing_in(real, where, what)`` wraps ``real`` so that it raises
    ValueError("<what> failed in the <where>") in the calling process
    (where="caller") or in a forked worker (where="worker").  In the
    worker case the caller's own calls first wait, for up to 30 s, until
    a worker has failed, so the error comes from a worker however the
    tasks are claimed."""
    def make(real, where, what):
        caller = os.getpid()
        failed = multiprocessing.get_context("fork").Event()

        def wrapper(*args, **kwargs):
            in_caller = os.getpid() == caller
            if in_caller == (where == "caller"):
                failed.set()
                raise ValueError(f"{what} failed in the {where}")
            if in_caller and not failed.wait(30):
                failed.set()  # no worker failed: stop holding the caller
            return real(*args, **kwargs)
        return wrapper
    return make
