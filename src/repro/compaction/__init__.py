"""Two-dimensional SI test set compaction."""

from repro.compaction.groups import SITestGroup
from repro.compaction.horizontal import GroupingResult, build_si_test_groups
from repro.compaction.kernel import (
    IndexView,
    KernelMismatchError,
    PackedPatternSet,
    PatternIndex,
    color_compact_bitset,
    greedy_compact_bitset,
)
from repro.compaction.vertical import (
    BACKENDS,
    CompactionResult,
    color_compact,
    greedy_compact,
)

__all__ = [
    "BACKENDS",
    "CompactionResult",
    "GroupingResult",
    "IndexView",
    "KernelMismatchError",
    "PackedPatternSet",
    "PatternIndex",
    "SITestGroup",
    "build_si_test_groups",
    "color_compact",
    "color_compact_bitset",
    "greedy_compact",
    "greedy_compact_bitset",
]
