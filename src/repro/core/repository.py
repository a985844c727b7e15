"""Implementation repository (paper §3.4, §7).

Binding installs a local representative whose implementation — the
"appropriate set of subobjects" — is loaded "from a nearby
implementation repository in a way similar to remote class loading in
Java".  We model this: implementations are registered globally (the
code base), and each host fetches an implementation once from the
nearest repository host, paying transfer time and traffic for the code
size; afterwards it is cached locally (the paper's "directory in the
local file system").
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple, Type

from ..sim.serde import HEADER_OVERHEAD
from ..sim.topology import Topology, nearest_first
from ..sim.transport import Host
from .idl import Interface
from .subobjects import SemanticsSubobject

__all__ = ["Implementation", "ImplementationRepository", "RepositoryError"]

#: Default size of an implementation bundle (subobject code), bytes.
DEFAULT_CODE_SIZE = 50_000


class RepositoryError(Exception):
    """Raised for unknown implementations or misconfiguration."""


class Implementation:
    """A named, loadable DSO implementation."""

    def __init__(self, impl_id: str,
                 semantics_class: Type[SemanticsSubobject],
                 code_size: int = DEFAULT_CODE_SIZE,
                 semantics_args: Optional[dict] = None):
        self.impl_id = impl_id
        self.semantics_class = semantics_class
        self.code_size = code_size
        self.semantics_args = semantics_args or {}

    @property
    def interface(self) -> Interface:
        return self.semantics_class.interface

    def make_semantics(self) -> SemanticsSubobject:
        """A fresh semantics subobject instance."""
        return self.semantics_class(**self.semantics_args)

    def __repr__(self) -> str:
        return "Implementation(%s)" % self.impl_id


class ImplementationRepository:
    """Registry plus per-host download cache."""

    def __init__(self, world):
        self.world = world
        self._registry: Dict[str, Implementation] = {}
        self._repo_hosts: List[Host] = []
        self._cached: Set[Tuple[str, str]] = set()
        self.downloads = 0

    def register(self, implementation: Implementation) -> None:
        self._registry[implementation.impl_id] = implementation

    def implementation(self, impl_id: str) -> Implementation:
        try:
            return self._registry[impl_id]
        except KeyError:
            raise RepositoryError(
                "no implementation registered for %r" % impl_id) from None

    def add_repository_host(self, host: Host) -> None:
        """Declare ``host`` as serving implementation downloads."""
        self._repo_hosts.append(host)

    def preload(self, host: Host, impl_id: str) -> None:
        """Mark ``impl_id`` as already present on ``host`` (no cost)."""
        self.implementation(impl_id)  # validate
        self._cached.add((host.name, impl_id))

    def is_cached(self, host: Host, impl_id: str) -> bool:
        return (host.name, impl_id) in self._cached

    def _nearest_repo(self, host: Host) -> Optional[Host]:
        live = [repo for repo in self._repo_hosts if repo.up]
        if not live:
            return None
        return nearest_first(host.site, live, lambda repo: repo.site)[0]

    def load(self, host: Host, impl_id: str
             ) -> Generator[Any, Any, Implementation]:
        """Fetch an implementation onto ``host`` (cached thereafter).

        ``impl = yield from repository.load(host, "gdn.package")``
        """
        implementation = self.implementation(impl_id)
        if self.is_cached(host, impl_id):
            return implementation
        repo = self._nearest_repo(host)
        if repo is not None and repo is not host:
            network = self.world.network
            level = Topology.separation(host.site, repo.site)
            request_size = HEADER_OVERHEAD + len(impl_id)
            network.meter.record(level, request_size)
            network.meter.record(level, implementation.code_size)
            delay = (network.transfer_delay(host.site, repo.site,
                                            request_size)
                     + network.transfer_delay(repo.site, host.site,
                                              implementation.code_size))
            yield self.world.sim.timeout(delay)
            self.downloads += 1
        self._cached.add((host.name, impl_id))
        return implementation
