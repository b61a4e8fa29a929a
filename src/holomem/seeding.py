"""Deterministic seed derivation for Monte Carlo work.

Child seeds are derived as the first 8 bytes (big-endian) of
SHA-256("{master}:{label}:{index}"), so each task gets an independent,
reproducible stream regardless of the order in which tasks run.
"""

from __future__ import annotations

import hashlib


def child_seed(master_seed: int, task_label: str, index: int) -> int:
    payload = f"{master_seed}:{task_label}:{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
