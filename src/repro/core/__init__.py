"""Globe object model: DSOs, subobjects, binding, replication.

This package is the paper's primary contribution (§3): distributed
shared objects composed of semantics / communication / replication /
control subobjects, with per-object replication scenarios, bound
through the location service and loaded from implementation
repositories.
"""

from . import replication  # noqa: F401 - registers built-in protocols
