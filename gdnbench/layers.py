"""The layer map: which layer each module under ``src/repro/`` belongs to.

Layer names are module names.  A rule is a dotted module prefix; the
longest matching prefix wins, so ``repro.core.marshal`` is its own
layer while the rest of ``repro.core`` is ``core``.  ``repro.sim`` and
``repro.gdn`` have no package-wide rule on purpose: their modules sit
in different layers, so a new module there has to be placed by hand
(the test suite fails until it is).
"""

from __future__ import annotations

import pathlib
from typing import Dict, Iterator, List

from . import ROOT

#: Everything that is not the program: the standard library, this
#: package, and the parts of ``repro`` no workload runs.
OTHER = "other"

#: The 19 layers, in stack order (bottom first, ``other`` last).
LAYERS = (
    "sim.kernel", "sim.network", "sim.transport", "sim.rpc", "sim.serde",
    "core.marshal", "security", "gls", "gns", "gdn.cache", "core", "gos",
    "gdn.httpd", "gdn.browser", "gdn.transfer", "gdn.tools", "workloads",
    "analysis.telemetry", OTHER,
)

_RULES: Dict[str, str] = {
    "repro.sim.kernel": "sim.kernel",
    "repro.sim.deadlines": "sim.kernel",
    "repro.sim.network": "sim.network",
    "repro.sim.topology": "sim.network",
    "repro.sim.failures": "sim.network",
    "repro.sim.transport": "sim.transport",
    "repro.sim.world": "sim.transport",
    "repro.sim.stable": "sim.transport",
    "repro.sim.rpc": "sim.rpc",
    "repro.sim.retry": "sim.rpc",
    "repro.sim.serde": "sim.serde",
    "repro.core.marshal": "core.marshal",
    "repro.core": "core",
    "repro.security": "security",
    "repro.gls": "gls",
    "repro.gns": "gns",
    "repro.gos": "gos",
    "repro.gdn.cache": "gdn.cache",
    "repro.gdn.httpd": "gdn.httpd",
    "repro.gdn.package": "gdn.httpd",
    "repro.gdn.search": "gdn.httpd",
    "repro.gdn.browser": "gdn.browser",
    "repro.gdn.transfer": "gdn.transfer",
    "repro.gdn.moderator": "gdn.tools",
    "repro.gdn.maintainer": "gdn.tools",
    "repro.gdn.deployment": "gdn.tools",
    "repro.gdn.scenario": "gdn.tools",
    "repro.workloads": "workloads",
    "repro.analysis": "analysis.telemetry",
    # Never on a workload's stack: the paper's comparison baselines and
    # the figure experiments.
    "repro.baselines": OTHER,
    "repro.experiments": OTHER,
}

#: Package ``__init__`` modules that only re-export names and match no
#: rule above.
_REEXPORTS = {"repro": OTHER, "repro.sim": OTHER, "repro.gdn": OTHER}


def matching_rules(module: str) -> List[str]:
    """Every rule prefix that covers ``module``, longest first."""
    parts = module.split(".")
    prefixes = [".".join(parts[:n]) for n in range(len(parts), 0, -1)]
    return [prefix for prefix in prefixes if prefix in _RULES]


def layer_of_module(module: str) -> str:
    """The layer of a dotted module name; ``KeyError`` if none is set."""
    if module in _REEXPORTS:
        return _REEXPORTS[module]
    rules = matching_rules(module)
    if not rules:
        raise KeyError("module %r is in no layer: add a rule to "
                       "gdnbench/layers.py" % module)
    return _RULES[rules[0]]


def module_of_file(filename: str) -> str:
    """Dotted module name of a source file under ``src/``, else ``""``."""
    path = pathlib.PurePath(filename)
    try:
        relative = path.relative_to(ROOT / "src")
    except ValueError:
        return ""
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_file(filename: str) -> str:
    """The layer a stack frame in ``filename`` is charged to.

    A program module nobody placed yet is charged to ``other`` here,
    so the benchmark keeps running; the test suite is what insists on
    a placement.
    """
    module = module_of_file(filename)
    if not module.startswith("repro"):
        return OTHER
    try:
        return layer_of_module(module)
    except KeyError:
        return OTHER


def program_modules() -> Iterator[str]:
    """Every module under ``src/repro/``, as a dotted name."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        yield module_of_file(str(path))
