"""Service benchmark for the PhaseBeat reproduction (see ../README.md)."""
