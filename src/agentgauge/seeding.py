"""Deterministic seed derivation, and draws of the seeded streams made ahead.

Every random stream in a run is derived from the master seed plus a tuple of
labels (role, agent name, environment id, episode index, ...).  Streams are
therefore independent of scheduling and of each other, which is what makes
parallel execution reproducible and per-environment estimates statistically
independent.

`Ahead` draws a lockstep group's streams ahead: it decodes the 32-bit
outputs of one bulk getrandbits call per stream as randrange, random or
getrandbits(1) would.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, *parts: object) -> int:
    """Return a 64-bit seed from the master seed and a label tuple."""
    key = repr((int(master),) + parts).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


# Draws of one group's streams made ahead at a time, at most; a block starts
# at 8 draws per episode and doubles, so an episode that stops early draws few.
AHEAD_DRAWS = 1 << 16


def random_floats(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """random() of each pair of 32-bit outputs a, b, all accepted: CPython
    makes it ((a >> 5) 2^26 + (b >> 6)) / 2^53."""
    floats = ((words[..., 0] >> 5) * 67108864.0 + (words[..., 1] >> 6)) / 9007199254740992.0
    return floats, np.ones(floats.shape, dtype=bool)


def below(n: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """randrange(n) candidates of 32-bit outputs and which are accepted:
    CPython takes the top n.bit_length() bits and draws again while they are
    n or more."""
    bits = (words[..., 0] >> (32 - n.bit_length())).astype(np.int64)
    return bits, bits < n


def single_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """getrandbits(1) of each 32-bit output, all accepted: its top bit."""
    bits = words[..., 0] >> 31
    return bits, np.ones(bits.shape, dtype=bool)


class Ahead:
    """Successive draws of each live episode's own random stream, made ahead.

    `convert` turns rows of `words` 32-bit outputs, one row per draw, into
    draws and a mask of those accepted.  A block row holds an episode's
    accepted draws first, in stream order, and each live episode takes its
    next one per `take`.  When one has none left, a new block of each live
    episode's untaken draws and then fresh ones, as many as fill its row,
    follows.
    """

    __slots__ = ("rngs", "words", "convert", "episodes", "drawn", "count", "least", "used")

    def __init__(self, rngs: list, words: int, convert) -> None:
        self.rngs, self.words, self.convert = rngs, words, convert
        self.episodes = np.arange(len(rngs))  # the live episodes, a block row each
        self.drawn = np.empty((len(rngs), 0), dtype=np.int64)
        self.count = np.zeros(len(rngs), dtype=np.int64)  # accepted draws per row
        self.least = self.used = 0  # the fewest of them, and the draws each row gave

    def take(self, live: np.ndarray) -> np.ndarray:
        if live.size < self.episodes.size:  # drop the rows of episodes that stopped
            keep = self.episodes.searchsorted(live)
            self.rngs = [self.rngs[i] for i in keep.tolist()]
            self.episodes, self.drawn, self.count = live, self.drawn[keep], self.count[keep]
            self.least = self.count.min()
        while self.used == self.least:
            untaken = self.drawn[:, self.used:]
            size = min(max(1, AHEAD_DRAWS // live.size), max(8, 2 * self.drawn.shape[1]))
            kept = np.arange(size) < (self.count - self.used)[:, None]
            need = self.words * (size - kept.sum(axis=1))
            words = np.frombuffer(b"".join(
                rng.getrandbits(32 * k).to_bytes(4 * k, "little")
                for rng, k in zip(self.rngs, need.tolist())), dtype="<u4")
            fresh, accepted = self.convert(words.reshape(-1, self.words))
            block = np.empty(kept.shape, dtype=fresh.dtype)
            block[kept], block[~kept] = untaken[kept[:, :untaken.shape[1]]], fresh
            ok = kept.copy()
            ok[~kept] = accepted
            self.drawn = np.take_along_axis(block, np.argsort(~ok, axis=1, kind="stable"), axis=1)
            self.count = ok.sum(axis=1)
            self.least = self.count.min()
            self.used = 0
        self.used += 1
        return self.drawn[:, self.used - 1]
