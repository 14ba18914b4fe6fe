"""Fixtures shared by the test modules."""

import os
import threading
from contextlib import suppress

import pytest


class DrainedFifo:
    """A FIFO at `path`, alone in its directory, whose bytes a reader
    thread collects from the moment the test starts.  `read()` waits for
    the writer to close it and returns what came through."""

    def __init__(self, base):
        self.dir = base / "out"
        self.dir.mkdir()
        self.path = self.dir / "fifo"
        os.mkfifo(self.path)
        # a second name for the FIFO, outside `dir`: a writer that never
        # opens the FIFO (one that replaces the path, say) leaves the
        # reader waiting in open(), and opening this name releases it
        self._spare = base / "spare"
        os.link(self.path, self._spare)
        self._chunks = []
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def _drain(self):
        with open(self.path, "rb") as fh:
            self._chunks.append(fh.read())

    def read(self):
        self._thread.join(10)
        if self._thread.is_alive():
            with suppress(OSError):
                os.close(os.open(self._spare, os.O_WRONLY | os.O_NONBLOCK))
            self._thread.join(10)
        assert not self._thread.is_alive(), "the FIFO's reader is still waiting"
        return b"".join(self._chunks)


@pytest.fixture
def drained_fifo(tmp_path):
    fifo = DrainedFifo(tmp_path)
    yield fifo
    fifo.read()  # releases a reader that a failing test left waiting
