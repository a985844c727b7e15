"""Simulation substrate: kernel, topology, network, transport, RPC.

This package replaces the real Internet that the GDN paper deployed on
with a deterministic discrete-event model: a run is a pure function of
its seed, which no deployment on real networks can offer.
"""

from .deadlines import FifoDeadlinePool, OrderedDeadlinePool, shared_pool
from .failures import FailureInjector
from .kernel import (AllOf, AnyOf, Event, Interrupt, Process, Resource,
                     SimulationError, Simulator, Singleflight, Store,
                     Timeout)
from .network import LinkParameters, Network, NetworkError, TrafficMeter
from .rpc import (RpcChannel, RpcContext, RpcError, RpcFault, RpcServer,
                  RpcTimeout, UdpRpcClient, UdpRpcServer, call)
from .serde import HEADER_OVERHEAD, encoded_size
from .topology import Domain, Level, Topology, TopologyError
from .transport import (Connection, ConnectionClosed, ConnectRefused,
                        ConnectTimeout, Datagram, Host, HostDown,
                        TcpListener, TransportError, UdpSocket)
from .world import World

__all__ = [
    "AllOf", "AnyOf", "Event", "Interrupt", "Process", "Resource",
    "SimulationError", "Simulator", "Singleflight", "Store", "Timeout",
    "FifoDeadlinePool", "OrderedDeadlinePool", "shared_pool",
    "LinkParameters", "Network", "NetworkError", "TrafficMeter",
    "RpcChannel", "RpcContext", "RpcError", "RpcFault", "RpcServer",
    "RpcTimeout", "UdpRpcClient", "UdpRpcServer", "call",
    "HEADER_OVERHEAD", "encoded_size",
    "Domain", "Level", "Topology", "TopologyError",
    "Connection", "ConnectionClosed", "ConnectRefused", "ConnectTimeout",
    "Datagram", "Host", "HostDown", "TcpListener", "TransportError",
    "UdpSocket", "World", "FailureInjector",
]
