"""End-to-end, layer-attributed benchmark of the default answering path."""
