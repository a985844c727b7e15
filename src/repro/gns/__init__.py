"""The Globe Name Service: object names -> object identifiers (§5)."""
