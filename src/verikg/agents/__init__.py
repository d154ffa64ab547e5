"""Agent pipelines: generation, syntax repair, CEX correction, coverage."""
