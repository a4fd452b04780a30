"""Spark job entry points for Tables 4-11, importable as ``jobs.<name>``."""
