"""The Tables 4-11 driver, importable as ``jobs.tables``."""
