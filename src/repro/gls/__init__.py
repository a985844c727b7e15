"""The Globe Location Service (paper §3.5): OID -> contact addresses."""
