"""Deterministic desk-scale simulator for reactive human-to-robot handovers."""
