"""Layered end-to-end benchmark of the repro package (see README.md)."""
