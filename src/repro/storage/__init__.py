"""Storage layer: index structures, the durable-value codec, checkpoints,
and the durability subsystem (append-ahead log + snapshots)."""

from .btree import BPlusTree
from .codec import CodecError, decode_value, encode_value
from .hash_index import HashIndex, HashMap

__all__ = [
    "BPlusTree",
    "CodecError",
    "HashIndex",
    "HashMap",
    "decode_value",
    "encode_value",
]
