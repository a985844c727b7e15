"""GDN principals, roles and authorization policy (paper §2, §6.1).

The user community: *users* retrieve packages, *moderators* create,
update and remove them, *administrators* control the GDN and hand out
moderator privileges; a future *maintainer* role manages a single
package's contents.  GDN hosts themselves form a further implicit
principal class (object servers accept state updates from each other).

Roles are carried as certificate attributes (``gdn-role``), so an
authenticated channel's peer principal maps to a role set without any
central lookup; the registry below is the CA-side bookkeeping plus the
authorizer callbacks the GOS and Naming Authority plug in.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

from ..sim.rpc import RpcContext
from .certs import Certificate

__all__ = ["Role", "PrincipalRegistry", "GdnPolicy", "role_attribute",
           "roles_from_certificate"]

_ROLE_ATTRIBUTE = "gdn-role"


class Role(str, enum.Enum):
    """The GDN user-community roles (§2)."""

    USER = "user"
    MAINTAINER = "maintainer"
    MODERATOR = "moderator"
    ADMIN = "admin"
    #: Machines on the trusted GDN host set (§6.2).
    GDN_HOST = "gdn-host"


def role_attribute(*roles: Role) -> Dict[str, str]:
    """Certificate attributes encoding a role set."""
    return {_ROLE_ATTRIBUTE: ",".join(role.value for role in roles)}


def roles_from_certificate(certificate: Certificate) -> Set[Role]:
    raw = certificate.attributes.get(_ROLE_ATTRIBUTE, "")
    roles = set()
    for part in raw.split(","):
        part = part.strip()
        if part:
            try:
                roles.add(Role(part))
            except ValueError:
                continue  # unknown roles are ignored, not trusted
    return roles


class PrincipalRegistry:
    """Principal name -> role set (the administrators' ledger).

    Also tracks *per-package* maintainer grants (§2's future fourth
    group: "A GDN maintainer is allowed to manage just the contents of
    a package"): a maintainer principal is bound to the OIDs of the
    packages they maintain.
    """

    def __init__(self):
        self._roles: Dict[str, Set[Role]] = {}
        self._maintained: Dict[str, Set[str]] = {}

    def grant(self, principal: str, *roles: Role) -> None:
        self._roles.setdefault(principal, set()).update(roles)

    def revoke(self, principal: str, role: Role) -> None:
        self._roles.get(principal, set()).discard(role)

    def roles_of(self, principal: Optional[str]) -> Set[Role]:
        if principal is None:
            return set()
        return set(self._roles.get(principal, set()))

    def has_role(self, principal: Optional[str], *roles: Role) -> bool:
        held = self.roles_of(principal)
        return any(role in held for role in roles)

    # -- per-package maintainer grants (§2) ------------------------------

    def grant_package(self, principal: str, oid_hex: str) -> None:
        """Make ``principal`` a maintainer of the package ``oid_hex``."""
        self.grant(principal, Role.MAINTAINER)
        self._maintained.setdefault(principal, set()).add(oid_hex)

    def maintains(self, principal: Optional[str], oid_hex: str) -> bool:
        if principal is None:
            return False
        return oid_hex in self._maintained.get(principal, set())


class GdnPolicy:
    """The concrete authorization rules of §6.1.

    * Object-server control commands (create/remove replicas): only
      moderators and administrators.
    * State-modifying invocations and state-update messages: moderator
      tools, other GDN hosts (e.g. a master pushing to slaves), or —
      for the one package they maintain — maintainers (§2).
    * GDN Zone updates via the Naming Authority: moderators and
      administrators.
    """

    def __init__(self, registry: PrincipalRegistry):
        self.registry = registry

    def gos_authorizer(self, ctx: RpcContext, operation: str,
                       oid_hex: Optional[str] = None) -> bool:
        principal = ctx.peer_principal
        if operation == "control":
            return self.registry.has_role(principal, Role.MODERATOR,
                                          Role.ADMIN)
        if operation == "modify":
            if self.registry.has_role(principal, Role.MODERATOR,
                                      Role.ADMIN, Role.GDN_HOST):
                return True
            return (oid_hex is not None
                    and self.registry.maintains(principal, oid_hex))
        return False

    def authority_authorizer(self, ctx: RpcContext) -> bool:
        return self.registry.has_role(ctx.peer_principal, Role.MODERATOR,
                                      Role.ADMIN)
