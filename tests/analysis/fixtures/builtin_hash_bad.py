"""Builtin ``hash()`` reaching simulation-visible values.

Every ``hash()`` call here outside ``__hash__`` must trip the determinism
lint's ``builtin-hash`` rule: ``str`` hashes are salted per process, so
the port and bucket below change with ``PYTHONHASHSEED``.  The module is
linted as text by the test suite and CI's must-fail loop; it is never
imported.
"""


def egress_port(peer: str) -> int:
    """A peer's port from its salted string hash."""
    return (hash(peer) % 64) + 1


def shard_of(key: tuple, shards: int) -> int:
    """A tuple of strings hashes through its salted members."""
    return hash(key) % shards


class Prefix:
    """``__hash__`` may use ``hash()``: the value never leaves the process."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __hash__(self) -> int:
        return hash(self.text)
