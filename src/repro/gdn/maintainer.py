"""The GDN maintainer tool (paper §2, future work implemented).

"In the future we intend to introduce a fourth group, the GDN
maintainers.  A GDN maintainer is allowed to manage just the contents
of a package.  He or she would typically be the person that also
maintains the software package (i.e., fixes bugs, etc.)."

A maintainer holds credentials with the ``maintainer`` role plus a
per-package grant in the principal registry; object servers then accept
their state-modifying invocations *only* for the packages they
maintain.  The tool itself is a content-management subset of the
moderator tool: it can change files and attributes, never replication
scenarios or names.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..core.ids import ObjectId
from ..core.runtime import Runtime
from ..sim.transport import Host

__all__ = ["MaintainerTool", "MaintenanceError"]


class MaintenanceError(Exception):
    """Raised when a maintenance operation fails."""


class MaintainerTool:
    """Content management for the packages one principal maintains."""

    def __init__(self, host: Host, runtime: Runtime, name_service):
        self.host = host
        self.runtime = runtime
        self.name_service = name_service

    def _bind(self, object_name: str) -> Generator:
        oid_hex = yield from self.name_service.resolve(object_name)
        representative = yield from self.runtime.bind(
            ObjectId.from_hex(oid_hex))
        return representative

    def update_contents(self, object_name: str,
                        add_files: Optional[Dict[str, bytes]] = None
                        ) -> Generator[object, object, int]:
        """Apply content changes; returns the new package version.

        Raises :class:`MaintenanceError` if any change is refused —
        e.g. this maintainer does not maintain ``object_name``.
        """
        representative = yield from self._bind(object_name)
        version = 0
        try:
            for path in sorted(add_files or {}):
                version = yield from representative.invoke(
                    "addFile", {"path": path, "data": add_files[path]})
        except Exception as exc:  # noqa: BLE001 - refusals cross the wire
            raise MaintenanceError(
                "update of %r refused: %s" % (object_name, exc)) from exc
        return version

    def restore_file(self, object_name: str, path: str, version: int
                     ) -> Generator:
        """Roll one file back to a retained earlier version (§8's
        version-management facility)."""
        representative = yield from self._bind(object_name)
        try:
            restored = yield from representative.invoke(
                "restoreFile", {"path": path, "version": version})
        except Exception as exc:  # noqa: BLE001
            raise MaintenanceError(
                "restore of %r refused: %s" % (object_name, exc)) from exc
        return restored
