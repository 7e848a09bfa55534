"""Decentralized secure storage over a circular hash-linked chain.

Files are encrypted, sharded into a bidirectional circular chain of
content-addressed blocks, pointer-locked with an XOR mask, and placed
one block per node through a latency-and-capacity election.  Recovery
walks the chain from the header block with two concurrent cursors.
"""

__version__ = "0.1.0"
