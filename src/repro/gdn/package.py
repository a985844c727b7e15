"""The package DSO: semantics subobject for software packages (§2, §4).

"All data stored in the GDN is stored in distributed shared objects …
every software package is contained in a package DSO."  A package is a
named collection of files, possibly large.  Method names follow the
paper's API (``listContents``, ``getFileContents``, …) rather than
PEP 8, because they are part of the reproduced interface.

Beyond the paper's minimum (add/list/retrieve), the semantics include
the two "possible functional additions" from §8 in simple form:
attribute-based search support via package attributes, and version
management via a monotonically increasing content version plus
per-file digests (which also serve the §6.1 integrity requirement —
users can verify what they downloaded).

The version history is append-only and travels with every state
transfer and checkpoint, so it is kept in the form it is shipped and
stored in: one ``bytes`` value, the concatenated
:func:`~repro.core.marshal.pack` encodings of its entries.  A write
appends one encoding; snapshots, pushes, restores and checkpoints carry
the ``bytes`` as it is; only ``getHistory`` decodes it.  What a write
costs in marshalling therefore does not grow with the writes before it.

A write also ships only what it changed.  The mutators note the files
set and deleted, the attributes set and where the op log stood, last
write wins per file; :meth:`PackageSemantics.take_changes` seals them
into one change set (the file ``bytes`` shared, not copied) and
:meth:`~PackageSemantics.apply_changes` replays one onto a copy, which
is how master/slave replication and caches keep their copies current.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from ..core.idl import mutating, read_only
from ..core.marshal import pack, unpack_sequence
from ..core.subobjects import SemanticsSubobject

__all__ = ["PackageSemantics", "PACKAGE_IMPL_ID", "HISTORY_RETENTION",
           "DEFAULT_CHUNK_SIZE"]

#: Implementation-repository id for the package DSO implementation.
PACKAGE_IMPL_ID = "gdn.package"

#: Default chunk granularity for manifest/chunk retrieval (bytes).
DEFAULT_CHUNK_SIZE = 8192

#: How many superseded file contents are retained for restoreFile
#: (§8's version-management facility, bounded so state stays small).
HISTORY_RETENTION = 8


class PackageSemantics(SemanticsSubobject):
    """Files + metadata of one distributable software package."""

    def __init__(self):
        self._files: Dict[str, bytes] = {}
        self._attributes: Dict[str, str] = {}
        self._content_version = 0
        #: Op log: one packed entry per mutation (version, op, path,
        #: size, digest), concatenated.
        self._history = b""
        #: Superseded contents, keyed "path@version", bounded FIFO.
        self._retained: Dict[str, bytes] = {}
        self._retained_order: List[str] = []
        #: getFileManifest's memo: path -> (contents, chunk_size, chunk
        #: digests, file digest).  Not state: never snapshot or shipped;
        #: dropped with its path, so it keeps no deleted contents alive.
        self._manifests: Dict[str, tuple] = {}
        self._forget_changes()

    # -- version management (§8 future work, implemented) --------------------

    def _log(self, op: str, path: str, data: Optional[bytes]) -> None:
        self._content_version += 1
        entry = {"version": self._content_version, "op": op, "path": path}
        if data is not None:
            entry["size"] = len(data)
            entry["digest"] = hashlib.sha256(data).hexdigest()
        self._history += pack(entry)

    def _retain(self, path: str, data: bytes, version: int) -> None:
        """Keep contents superseded *by* mutation ``version``, bounded."""
        key = "%s@%d" % (path, version)
        self._retained[key] = data
        self._retained_order.append(key)
        while len(self._retained_order) > HISTORY_RETENTION:
            evicted = self._retained_order.pop(0)
            self._retained.pop(evicted, None)

    # -- modification (moderator/maintainer-only by GDN policy) ---------------

    @mutating
    def addFile(self, path: str, data: bytes) -> int:
        """Add or replace a file; returns the new content version."""
        if not path or path.startswith("/"):
            raise ValueError("file paths are relative, got %r" % path)
        if not isinstance(data, bytes):
            raise ValueError("file contents must be bytes")
        previous = self._files.get(path)
        self._files[path] = data
        self._changed_files[path] = data
        self._deleted.pop(path, None)
        self._log("add", path, data)
        if previous is not None:
            self._retain(path, previous, self._content_version)
        return self._content_version

    @mutating
    def delFile(self, path: str) -> bool:
        """Remove a file; True if it existed."""
        previous = self._files.pop(path, None)
        if previous is None:
            return False
        self._changed_files.pop(path, None)
        self._deleted[path] = None
        self._manifests.pop(path, None)
        self._log("del", path, None)
        self._retain(path, previous, self._content_version)
        return True

    @mutating
    def restoreFile(self, path: str, version: int) -> int:
        """Restore a file to its contents as of just before ``version``.

        ``version`` names the mutation that superseded the wanted
        contents (as listed by ``getHistory``).  Only the last few
        superseded contents are retained; restoring anything older
        raises.  The restore itself is a new versioned write.
        """
        key = "%s@%d" % (path, version)
        data = self._retained.get(key)
        if data is None:
            raise KeyError("no retained contents for %s at version %d"
                           % (path, version))
        return self.addFile(path, data)

    @mutating
    def setAttribute(self, key: str, value: str) -> None:
        """Set a searchable package attribute (e.g. ``category``)."""
        self._attributes[key] = value
        self._changed_attributes[key] = value
        self._log("attr", key, None)

    # -- retrieval (open to all GDN users) -------------------------------------

    @read_only
    def listContents(self) -> List[dict]:
        """Names and sizes of the files in the package."""
        return [{"path": path, "size": len(data)}
                for path, data in sorted(self._files.items())]

    @read_only
    def getFileContents(self, path: str) -> bytes:
        try:
            return self._files[path]
        except KeyError:
            raise KeyError("no file %r in this package" % path) from None

    @read_only
    def getFileDigest(self, path: str) -> str:
        """SHA-256 of a file — lets users check download integrity."""
        return hashlib.sha256(self.getFileContents(path)).hexdigest()

    @read_only
    def getFileManifest(self, path: str,
                        chunk_size: int = DEFAULT_CHUNK_SIZE) -> dict:
        """Chunk map for a resumable download of one file.

        Per-chunk digests let the client verify each chunk as it
        arrives (and skip re-fetching verified chunks on resume); the
        whole-file digest and content version let it detect a file
        that changed under an in-progress transfer.

        The digests are memoised per path, together with the contents
        object they were computed from and the chunk size: every
        client of a large file asks for the same manifest, and hashing
        the file costs far more than the request.  A memo entry serves
        only while that very ``bytes`` object is still the stored
        contents (``is``, not ``==``).  Bytes are immutable, so the
        same object means the same content, and any write that stores
        other contents misses without an invalidation hook.  Every
        call returns a fresh dict and digest list and reads the
        version live.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        data = self.getFileContents(path)
        memo = self._manifests.get(path)
        if memo is None or memo[0] is not data or memo[1] != chunk_size:
            chunks = [data[offset:offset + chunk_size]
                      for offset in range(0, len(data), chunk_size)] or [b""]
            memo = (data, chunk_size,
                    [hashlib.sha256(chunk).hexdigest() for chunk in chunks],
                    hashlib.sha256(data).hexdigest())
            self._manifests[path] = memo
        _data, _chunk_size, digests, digest = memo
        return {
            "path": path,
            "size": len(data),
            "chunk_size": chunk_size,
            "chunk_count": len(digests),
            "chunk_digests": list(digests),
            "digest": digest,
            "version": self._content_version,
        }

    @read_only
    def getFileChunk(self, path: str, index: int,
                     chunk_size: int = DEFAULT_CHUNK_SIZE) -> bytes:
        """One chunk of a file, by manifest index."""
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        data = self.getFileContents(path)
        count = max(1, -(-len(data) // chunk_size))
        if not 0 <= index < count:
            raise IndexError("chunk %d out of range (file has %d chunks)"
                             % (index, count))
        return data[index * chunk_size:(index + 1) * chunk_size]

    @read_only
    def getAttribute(self, key: str) -> Optional[str]:
        return self._attributes.get(key)

    @read_only
    def getAttributes(self) -> Dict[str, str]:
        return dict(self._attributes)

    @read_only
    def getVersion(self) -> int:
        return self._content_version

    @read_only
    def getHistory(self) -> List[dict]:
        """The mutation log: version, operation, path, size, digest."""
        return unpack_sequence(self._history)

    @read_only
    def totalSize(self) -> int:
        return sum(len(data) for data in self._files.values())

    # -- state management (replication / persistence) -----------------------------

    def snapshot_state(self) -> dict:
        return {
            "files": dict(self._files),
            "attributes": dict(self._attributes),
            "version": self._content_version,
            "history": self._history,
            "retained": dict(self._retained),
            "retained_order": list(self._retained_order),
        }

    def restore_state(self, state: dict) -> None:
        history = state.get("history", b"")
        if not isinstance(history, bytes):
            raise TypeError("package history must be packed bytes, got %s"
                            % type(history).__name__)
        self._files = dict(state["files"])
        self._attributes = dict(state.get("attributes", {}))
        self._content_version = state.get("version", 0)
        self._history = history
        self._retained = dict(state.get("retained", {}))
        self._retained_order = list(state.get("retained_order", []))
        self._manifests = {}
        self._forget_changes()

    def replication_state(self) -> dict:
        """State shipped to slaves and caches.

        Excludes the retained (superseded) file contents: they exist to
        serve ``restoreFile``, which is a *write* and therefore always
        executes at the master — slaves never need them, and shipping
        them would multiply every state transfer by the retention
        depth.
        """
        state = self.snapshot_state()
        state["retained"] = {}
        state["retained_order"] = []
        return state

    # -- change sets (replication by what a write changed) ------------------------

    def _forget_changes(self) -> None:
        """Start noting changes afresh from the state as it stands."""
        self._changed_files: Dict[str, bytes] = {}
        self._deleted: Dict[str, None] = {}  # ordered set of paths
        self._changed_attributes: Dict[str, str] = {}
        self._history_mark = len(self._history)

    def take_changes(self) -> dict:
        """What changed since the last call, as one change set: files
        set, paths deleted, attributes set (each omitted when empty),
        the op-log entries appended and the content version reached."""
        changes = {"version": self._content_version,
                   "history": self._history[self._history_mark:]}
        if self._changed_files:
            changes["files"] = self._changed_files
        if self._deleted:
            changes["deleted"] = list(self._deleted)
        if self._changed_attributes:
            changes["attributes"] = self._changed_attributes
        self._forget_changes()
        return changes

    def apply_changes(self, changes: dict) -> None:
        """Replay a change set onto this copy.  What it replays is not
        this copy's to ship again, so it notes nothing."""
        for path in changes.get("deleted", ()):
            self._files.pop(path, None)
            self._manifests.pop(path, None)
        self._files.update(changes.get("files", {}))
        self._attributes.update(changes.get("attributes", {}))
        self._history += changes["history"]
        self._content_version = changes["version"]
        self._forget_changes()

    def squash_changes(self, change_sets: List[dict]) -> dict:
        """Consecutive change sets as one, last write wins per file."""
        if len(change_sets) == 1:
            return change_sets[0]
        files: Dict[str, bytes] = {}
        deleted: Dict[str, None] = {}
        attributes: Dict[str, str] = {}
        for changes in change_sets:
            for path in changes.get("deleted", ()):
                files.pop(path, None)
                deleted[path] = None
            for path, data in changes.get("files", {}).items():
                files[path] = data
                deleted.pop(path, None)
            attributes.update(changes.get("attributes", {}))
        squashed = {"version": change_sets[-1]["version"],
                    "history": b"".join(changes["history"]
                                        for changes in change_sets)}
        if files:
            squashed["files"] = files
        if deleted:
            squashed["deleted"] = list(deleted)
        if attributes:
            squashed["attributes"] = attributes
        return squashed
