"""Weak links from a part to its owner.

A built world is a tree: a part never holds its owner strongly
(``docs/architecture.md``, "Ownership"), so dropping the last reference
to a cluster frees the whole world by reference counting.  A part that
must call its owner keeps a ``weakref.ref`` to it and calls the link.
"""


def unbound() -> None:
    """A link not bound to an owner yet: it dereferences to ``None``."""
    return None
