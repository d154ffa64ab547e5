"""Desk-scale explicit-state formal checker."""
