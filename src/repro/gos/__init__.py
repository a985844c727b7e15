"""Globe Object Servers: application-independent replica hosting (§4)."""

from .server import (DEFAULT_GOS_PORT, GlobeObjectServer, GosError,
                     NotAuthorized, OP_CONTROL, OP_MODIFY)

__all__ = [
    "DEFAULT_GOS_PORT",
    "GlobeObjectServer", "GosError", "NotAuthorized",
    "OP_CONTROL", "OP_MODIFY",
]
