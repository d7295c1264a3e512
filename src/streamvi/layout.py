"""Flat parameter vectors with named slices.

Learnable parameters live in one float64 vector; a layout maps names to
(offset, shape) views so optimizer updates stay a single axpy while
model/network code addresses blocks by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SliceSpec:
    name: str
    offset: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1


class ParamLayout:
    """Ordered named slices that exactly partition a flat vector."""

    def __init__(self, entries: list[SliceSpec]):
        self.entries = entries
        self.by_name = {e.name: e for e in entries}
        if len(self.by_name) != len(entries):
            raise ValueError("duplicate slice names")
        off = 0
        for e in entries:
            if e.offset != off:
                raise ValueError(f"slice {e.name} at offset {e.offset}, expected {off}")
            off += e.size
        self.total = off

    @classmethod
    def build(cls, named_shapes: list[tuple[str, tuple[int, ...]]]) -> "ParamLayout":
        entries, off = [], 0
        for name, shape in named_shapes:
            spec = SliceSpec(name=name, offset=off, shape=tuple(shape))
            entries.append(spec)
            off += spec.size
        return cls(entries)

    def view(self, flat: np.ndarray, name: str) -> np.ndarray:
        e = self.by_name[name]
        return flat[e.offset:e.offset + e.size].reshape(e.shape)

    def pack(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        flat = np.empty(self.total)
        for e in self.entries:
            flat[e.offset:e.offset + e.size] = np.asarray(arrays[e.name]).ravel()
        return flat

    def names(self) -> list[str]:
        return [e.name for e in self.entries]
