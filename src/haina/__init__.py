"""Decentralized secure storage over a circular hash-linked chain.

Files are encrypted, sharded into a bidirectional circular chain of
content-addressed blocks, pointer-locked with an XOR mask, and placed
one block per node through a latency-and-capacity election.  Recovery
walks the chain from the header block with two concurrent cursors.
"""

from .chain import Block, build_chain, verify_chain
from .client import bdam_fetch, download, speedup, unidirectional_fetch, upload
from .crypto import decrypt_file, encrypt_file, generate_key, generate_mask
from .errors import (
    CampaignError,
    HainaError,
    IncompleteChainError,
    IntegrityError,
    NetworkError,
    ParseError,
    UsageError,
)
from .locking import lock_chain, unlock_block
from .metafile import MetaFile, parse_meta_file, serialize_meta_file
from .nodefile import NodeFile, make_node_file, parse_node_file, update_node_file
from .por import PorConfig, check_rate, check_store, judge, pick_first_beginner, run_campaign

__version__ = "0.1.0"

__all__ = [
    "Block",
    "build_chain",
    "verify_chain",
    "bdam_fetch",
    "download",
    "speedup",
    "unidirectional_fetch",
    "upload",
    "decrypt_file",
    "encrypt_file",
    "generate_key",
    "generate_mask",
    "CampaignError",
    "HainaError",
    "IncompleteChainError",
    "IntegrityError",
    "NetworkError",
    "ParseError",
    "UsageError",
    "lock_chain",
    "unlock_block",
    "MetaFile",
    "parse_meta_file",
    "serialize_meta_file",
    "NodeFile",
    "make_node_file",
    "parse_node_file",
    "update_node_file",
    "PorConfig",
    "check_rate",
    "check_store",
    "judge",
    "pick_first_beginner",
    "run_campaign",
]
