"""The repository benchmark: workloads, layer spans and checks (README.md)."""
