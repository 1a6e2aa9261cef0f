"""Named parameter collection with a frozen subset.

The store is an ordered map name -> Tensor.  Frozen entries (pretrained
backbone surrogates, the language table, a locked codebook) are exempt from
optimization and never receive gradients; the optimizer never gathers them
into its update, so their values stay bitwise untouched.  ``arrays()`` is a
live view of the same entries as their plain arrays, which tape-free passes
read.
"""

from __future__ import annotations

import hashlib

import numpy as np

from geoaware.errors import StateError
from geoaware.numerics.tensor import Tensor


class ParamStore:
    def __init__(self):
        self._entries: dict[str, Tensor] = {}
        self._frozen: set[str] = set()

    def add(self, name, values, frozen=False):
        """Register a parameter; names are unique."""
        if name in self._entries:
            raise StateError(f"parameter {name!r} already registered")
        t = values if isinstance(values, Tensor) else Tensor(values)
        t.requires_grad = not frozen
        self._entries[name] = t
        if frozen:
            self._frozen.add(name)
        return t

    def __getitem__(self, name) -> Tensor:
        try:
            return self._entries[name]
        except KeyError:
            raise StateError(f"unknown parameter {name!r}") from None

    def arrays(self):
        """The entries as plain arrays (``ParamArrays``), for tape-free passes."""
        return ParamArrays(self)

    def replace(self, name, values):
        """Swap an existing entry's tensor (gradient checking substitutes leaves)."""
        if name not in self._entries:
            raise StateError(f"unknown parameter {name!r}")
        t = values if isinstance(values, Tensor) else Tensor(values)
        t.requires_grad = name not in self._frozen
        self._entries[name] = t
        return t

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def frozen_names(self):
        return set(self._frozen)

    def trainable_names(self):
        return [n for n in self._entries if n not in self._frozen]

    def set_frozen(self, names):
        """Replace the frozen set (used when switching training phases)."""
        names = set(names)
        unknown = names - set(self._entries)
        if unknown:
            raise StateError(f"cannot freeze unknown parameters: {sorted(unknown)}")
        self._frozen = names
        for n, t in self._entries.items():
            t.requires_grad = n not in names
            if n in names:
                t.grad = None

    def hash_of(self, names=None):
        """SHA-256 over the raw bytes of the given entries (default: all), in name order."""
        h = hashlib.sha256()
        for n in sorted(names if names is not None else self._entries):
            t = self[n]
            h.update(n.encode())
            h.update(np.ascontiguousarray(t.values).tobytes())
        return h.hexdigest()

    def norms(self):
        return {n: float(np.linalg.norm(t.values)) for n, t in self._entries.items()}


class ParamArrays:
    """A live, read-only view of a ``ParamStore``: ``view[name]`` is
    ``store[name].values`` at the time of the lookup, so replaced entries and
    optimizer updates show through, and ``frozen_names`` is the store's.
    Under ``no_grad``, ops given these arrays and other plain inputs run
    tape-free (see the ``tensor`` module)."""

    __slots__ = ("_store",)

    def __init__(self, store: ParamStore):
        self._store = store

    def __getitem__(self, name) -> np.ndarray:
        try:
            return self._store._entries[name].values
        except KeyError:
            raise StateError(f"unknown parameter {name!r}") from None

    def frozen_names(self):
        return self._store.frozen_names()
