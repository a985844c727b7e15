"""A small Globe IDL: textual interface definitions (paper §7).

"The application programmer starts by defining the interfaces of the
DSO in Globe's interface definition language (IDL).  Using our IDL
compiler these interfaces are translated into Java."  Our semantics
classes declare methods with decorators; this module provides the
other direction — parse an interface definition and *check* that a
semantics class implements it, which is what the IDL contract buys:

    PACKAGE_IDL = '''
    interface Package {
        readonly listContents();
        readonly getFileContents(path);
        mutating addFile(path, data);
    };
    '''
    interface = parse_idl(PACKAGE_IDL)
    check_implements(PackageSemantics, interface)

Globe objects may have multiple interfaces (the paper notes the COM
model); a definition file may contain several ``interface`` blocks.
"""

from __future__ import annotations

import inspect
import re
from typing import Dict, List

from .idl import Interface, MethodSpec, Mode

__all__ = ["parse_idl", "check_implements", "IdlSyntaxError",
           "IdlComplianceError"]


class IdlSyntaxError(Exception):
    """The IDL text is malformed."""


class IdlComplianceError(Exception):
    """A semantics class does not implement a declared interface."""


_INTERFACE_RE = re.compile(
    r"interface\s+(?P<name>[A-Za-z_]\w*)\s*\{(?P<body>[^}]*)\}\s*;?",
    re.DOTALL)
_METHOD_RE = re.compile(
    r"^\s*(?P<mode>readonly|mutating)\s+(?P<name>[A-Za-z_]\w*)\s*"
    r"\((?P<params>[^)]*)\)\s*;\s*$")
_PARAM_RE = re.compile(r"^[A-Za-z_]\w*$")


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


class ParsedInterface(Interface):
    """An interface parsed from IDL text; remembers parameter names."""

    def __init__(self, name: str, methods: Dict[str, MethodSpec],
                 parameters: Dict[str, List[str]]):
        super().__init__(name, methods)
        self.parameters = parameters


def parse_idl(text: str) -> Dict[str, ParsedInterface]:
    """Parse IDL text into interfaces keyed by name."""
    text = _strip_comments(text)
    interfaces: Dict[str, ParsedInterface] = {}
    consumed = 0
    for match in _INTERFACE_RE.finditer(text):
        consumed += len(match.group(0))
        name = match.group("name")
        if name in interfaces:
            raise IdlSyntaxError("duplicate interface %r" % name)
        methods: Dict[str, MethodSpec] = {}
        parameters: Dict[str, List[str]] = {}
        for line in match.group("body").splitlines():
            if not line.strip():
                continue
            method_match = _METHOD_RE.match(line)
            if method_match is None:
                raise IdlSyntaxError("bad method declaration: %r"
                                     % line.strip())
            method_name = method_match.group("name")
            if method_name in methods:
                raise IdlSyntaxError("duplicate method %r in %s"
                                     % (method_name, name))
            mode = (Mode.READ if method_match.group("mode") == "readonly"
                    else Mode.WRITE)
            params = [p.strip() for p in
                      method_match.group("params").split(",") if p.strip()]
            for param in params:
                if not _PARAM_RE.match(param):
                    raise IdlSyntaxError("bad parameter name %r in %s.%s"
                                         % (param, name, method_name))
            methods[method_name] = MethodSpec(method_name, mode)
            parameters[method_name] = params
        interfaces[name] = ParsedInterface(name, methods, parameters)
    leftovers = _INTERFACE_RE.sub("", text).strip()
    if leftovers:
        raise IdlSyntaxError("unparsed IDL content: %r..."
                             % leftovers[:40])
    if not interfaces:
        raise IdlSyntaxError("no interface definitions found")
    return interfaces


def check_implements(semantics_class: type,
                     interface: ParsedInterface) -> None:
    """Verify a semantics class against a parsed interface.

    Checks that every declared method exists with the declared
    read/write mode and accepts the declared parameter names.  Raises
    :class:`IdlComplianceError` on the first violation.
    """
    declared = getattr(semantics_class, "interface", None)
    if declared is None:
        raise IdlComplianceError(
            "%s is not a semantics class" % semantics_class.__name__)
    for method_name, spec in interface.methods.items():
        if method_name not in declared:
            raise IdlComplianceError(
                "%s does not implement %s.%s"
                % (semantics_class.__name__, interface.name, method_name))
        actual = declared.spec(method_name)
        if actual.mode != spec.mode:
            raise IdlComplianceError(
                "%s.%s is %s but the IDL declares %s"
                % (semantics_class.__name__, method_name,
                   actual.mode.value, spec.mode.value))
        function = getattr(semantics_class, method_name)
        signature = inspect.signature(function)
        accepted = [p for p in signature.parameters if p != "self"]
        for param in interface.parameters[method_name]:
            if param not in accepted:
                raise IdlComplianceError(
                    "%s.%s does not accept parameter %r declared in the"
                    " IDL" % (semantics_class.__name__, method_name, param))
