"""Wall-clock benchmark of the matching package; see README.md."""
