"""The Globe Distribution Network application (paper §2, §4)."""
