"""A bounded journal of versioned change sets.

The one way a copy is brought up to date by what changed rather than by
everything there is: an owner seals each change set under the next
version (:meth:`Journal.append`), and a copy at version ``v`` replays
:meth:`Journal.since` ``(v)`` in order.  A GNS zone journals its record
changes (RFC 1995 IXFR) and a master/slave package replica journals its
writes.

The journal holds whatever change sets it is given, by reference: a
change set that names file contents shares those ``bytes`` with the
state they were written into.
"""

from __future__ import annotations

import collections
import itertools
from typing import Any, Deque, List, Optional

__all__ = ["Journal", "JOURNAL_DEPTH"]

#: Sealed change sets a journal keeps.  A copy that fell further behind
#: than this (or has nothing yet) is sent whole state instead, so the
#: bound costs a lagging copy one full transfer, never correctness; it
#: keeps an owner that changes forever at a fixed footprint.
JOURNAL_DEPTH = 64


class Journal:
    """Change sets for the consecutive versions ending at ``version``."""

    def __init__(self, version: int = 0):
        #: The version the newest change set leads to.
        self.version = version
        self._sets: Deque[Any] = collections.deque(maxlen=JOURNAL_DEPTH)

    def __len__(self) -> int:
        return len(self._sets)

    def append(self, version: int, change_set: Any) -> None:
        """Seal ``change_set`` as the step to ``version``, which must be
        the next one."""
        if version != self.version + 1:
            raise ValueError("change set %d does not follow version %d"
                             % (version, self.version))
        self._sets.append(change_set)
        self.version = version

    def reset(self, version: int) -> None:
        """Forget every change set: the copy was replaced whole (or by
        more than one step at once) and now stands at ``version``."""
        self._sets.clear()
        self.version = version

    def since(self, version: int) -> Optional[List[Any]]:
        """The change sets after ``version``, oldest first (none for a
        copy that is current) — or ``None`` where this journal cannot
        take a copy from ``version`` to here: it no longer reaches back
        that far, or ``version`` is ahead of it."""
        behind = self.version - version
        if not behind:
            return []
        sets = self._sets
        if not 0 < behind <= len(sets):
            return None
        return list(itertools.islice(sets, len(sets) - behind, None))
