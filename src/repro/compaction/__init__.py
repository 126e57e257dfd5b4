"""Two-dimensional SI test set compaction."""
