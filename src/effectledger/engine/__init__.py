"""SQL subset engine: parser, value domain, and the executing database."""
