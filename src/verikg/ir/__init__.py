"""Typed IR artifacts: validation, persistence, graph export, run diffing."""
