"""Globe Object Servers: application-independent replica hosting (§4)."""
