"""GDN security: crypto, certificates, TLS channels, roles (§6)."""
