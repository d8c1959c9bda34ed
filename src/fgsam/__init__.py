"""Sharpness-aware optimizers for graph neural networks with a
weight-sharing PeerMLP fast path, plus synthetic-graph theory checks and
an episodic few-shot training protocol."""

__version__ = "0.1.0"
