"""An in-simulator DNS: the substrate under the Globe Name Service (§5)."""
