"""SOC data model, ITC'02 benchmark format, and shipped benchmarks."""
