"""Dual graphs of totally degenerate fibers with cyclic Galois actions.

Build the graph families realizing every admissible (genus, index) pair,
compute the index and the complete splitting-field classification from the
graph, and verify the classification exhaustively against an independent
blowup oracle.
"""

__version__ = "0.1.0"
