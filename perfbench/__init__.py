"""Seeded benchmark for geodom; see WORKLOADS.md and run.py."""
