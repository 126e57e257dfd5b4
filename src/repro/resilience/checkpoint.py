"""A placeholder for the retired sweep checkpoint.

Runs resume from the evaluation cache's on-disk store
(:mod:`repro.runtime.cache`): a killed sweep is resumed by running it
again over the same store.  Nothing in the program builds or calls
:class:`SweepCheckpoint`.
"""

from __future__ import annotations

__all__ = ["SweepCheckpoint"]


class SweepCheckpoint:
    """Kept only as a name: ``perfbench/spans.py`` binds a span over
    ``repro.resilience.checkpoint.SweepCheckpoint.record`` by name when
    it installs, so every traced benchmark run would fail at start
    without it.  The span then never fires."""

    def record(self, key: str, value) -> None:
        """Never called."""
