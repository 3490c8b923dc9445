"""Checks that every test must pass besides its own assertions."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, after stopping it."""
    yield
    left = multiprocessing.active_children()
    message = f"child processes still running after the test: {left}"
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(message)
