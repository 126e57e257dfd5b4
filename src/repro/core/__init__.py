"""The paper's contribution: SI-aware scheduling and TAM optimization."""
