"""Empirical output-frequency tables from exhaustive small Turing machines.

The machine class is the busy-beaver-style (n states, 2 symbols) formalism:
states are numbered 1..n, the head starts on cell 0 of an unbounded all-0
tape in state 1, and each of the 2n transition-table entries (state, read
symbol) holds one of 4n+2 choices:

* 4n non-halting choices: write 0/1, move L/R, go to one of the n states;
* 2 halting choices: write 0/1 and stop (no move).

That gives exactly (4n+2)^(2n) machines.  A machine is a single integer
``machine_index``: entry (q, a) is digit number 2*(q-1)+a of the index in
base 4n+2 (least-significant digit first).  Within a digit d, d < 4n
encodes (write d&1, move L if d%4 < 2 else R, next state d//4 + 1) and
d >= 4n encodes (halt, write d-4n).

A machine's output is the tape segment between the leftmost and rightmost
cells the head ever visited, read left to right at the moment it halts.
Output frequencies are tallied under both blank-symbol conventions: running
a machine on an all-1 tape is, after relabeling the symbols, identical to
complementing the all-0 run of its read/write-conjugate machine, and the
conjugation is a bijection of the class onto itself.  Summing over the full
class, counting each halting machine's output together with that output's
bitwise complement is therefore exactly the two-blank tally.  It makes
count(s) = count(complement(s)) an identity of the table and doubles the
halting count H relative to the number of halting machines.

The table assigns each output string s the value -log2(count(s) / H),
a frequency-of-production complexity estimate in bits.

``build_table`` steps only machines that might still halt, as
Soler-Toscano, Zenil, Delahaye & Gauvrit (PLoS ONE, 2014) discard machines
that cannot.  Both drop rules are exact: a dropped machine provably never
halts, so it would add no output, and it still counts in ``total``.

* Before step 1: no state reachable from state 1 through non-halting
  entries (reading either symbol) has a halting entry.  The machine only
  ever enters reachable states, so it never meets a halting entry.
* At the step where the head moves past the visited segment into a state
  q whose blank-reading entry (q, 0) moves further out, the same way, into
  a state with the same property (a greatest fixpoint over the table).
  Every cell beyond the segment is still blank, so from there on the
  machine reads only blanks, keeps moving out and never halts.

``run_machine`` applies neither rule: it is the reference the fast path is
tested against.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from importlib import resources
from typing import NamedTuple

import numpy as np

from .ca import _TO_TEXT
from .parallel import _pmap
from .rng import _MASK64, Stream

DEFAULT_CUTOFF = 107  # sound for n <= 4: no (4,2) machine halts later
# Bytes one chunk's tapes, a sample's int64 indices, or one batch of
# spacetimes evolved together may take: 2^18 tapes at the default cutoff.
_TAPE_BYTES = (1 << 18) * (2 * DEFAULT_CUTOFF + 1)
ENV_TABLE_DIR = "CABDM_TABLE_DIR"
_SAMPLE_BLOCK = 4096  # words drawn per Stream.next_words call of a sample

_COMPLEMENT = str.maketrans("01", "10")


class CoverageError(LookupError):
    """A block length the table has no entries for was looked up."""


class CorruptTableError(ValueError):
    """A table file failed validation while loading."""


class Transition(NamedTuple):
    write: int
    move: str | None       # "L"/"R", or None when the entry halts
    next_state: int | None  # None when the entry halts

    @property
    def halts(self) -> bool:
        return self.move is None


@dataclass(frozen=True)
class TuringMachine:
    states: int
    symbols: int
    machine_index: int
    transitions: dict[tuple[int, int], Transition]


@dataclass(frozen=True)
class RunOutcome:
    halted: bool
    steps_used: int
    output: str | None


def class_size(n: int) -> int:
    if n < 1:
        raise ValueError(f"state count must be >= 1, got {n}")
    return (4 * n + 2) ** (2 * n)


def _digit_to_transition(digit: int, n: int) -> Transition:
    if digit >= 4 * n:
        return Transition(write=digit - 4 * n, move=None, next_state=None)
    return Transition(
        write=digit & 1,
        move="L" if digit % 4 < 2 else "R",
        next_state=digit // 4 + 1,
    )


def decode_machine(index: int, n: int) -> TuringMachine:
    """Inverse of ``machine_index``: digits become transition entries."""
    if not 0 <= index < class_size(n):
        raise ValueError(f"machine index {index} outside class of size {class_size(n)}")
    base = 4 * n + 2
    transitions = {}
    x = index
    for q in range(1, n + 1):
        for a in range(2):
            transitions[(q, a)] = _digit_to_transition(x % base, n)
            x //= base
    return TuringMachine(states=n, symbols=2, machine_index=index, transitions=transitions)


def run_machine(machine: TuringMachine, cutoff: int) -> RunOutcome:
    """Simulate one machine on a blank tape for at most ``cutoff`` steps.

    This is the plain reference simulator; ``build_table`` uses a
    vectorized equivalent and is cross-checked against this one.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    tape: dict[int, int] = {}
    head = 0
    state = 1
    lo = hi = 0
    for step in range(1, cutoff + 1):
        t = machine.transitions[(state, tape.get(head, 0))]
        tape[head] = t.write
        if t.halts:
            output = "".join(str(tape.get(i, 0)) for i in range(lo, hi + 1))
            return RunOutcome(halted=True, steps_used=step, output=output)
        head += -1 if t.move == "L" else 1
        lo = min(lo, head)
        hi = max(hi, head)
        state = t.next_state
    return RunOutcome(halted=False, steps_used=cutoff, output=None)


def _never_halts(digits: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two drop rules of ``_simulate_array``, read off the transition
    tables alone (one row of 2n digits per machine).

    Returns (``unreachable``: no state reachable from state 1 has a halting
    entry, per machine; ``escapes``: per entry, taking it onto a cell past
    the visited segment starts a run over blank cells that never ends).
    Sets of states are uint8 masks, bit q-1 for state q, so n <= 8.
    """
    digits = np.ascontiguousarray(digits.T)  # row e = 2*(q-1) + a: entry (q, a) of every machine
    halts = digits >= 4 * n
    goes = np.where(halts, 0, np.left_shift(1, digits // 4)).astype(np.uint8)  # its next state
    right = ~halts & (digits % 4 >= 2)
    own = np.left_shift(1, np.arange(2 * n) // 2).astype(np.uint8)[:, None]  # its own state

    def union(masks):  # per machine, the union of the rows' masks
        return reduce(np.bitwise_or, masks)

    reach = np.ones(digits.shape[1], dtype=np.uint8)  # state 1
    for _ in range(n - 1):
        reach |= union(goes * (reach & own != 0))
    unreachable = reach & union(halts * own) == 0

    # Per side (right, then left), the greatest fixpoint: the states whose
    # blank-reading entry moves that way into a state of the set.
    sides = []
    for outward in (right[0::2], ~halts[0::2] & ~right[0::2]):
        mask = union(outward * own[0::2])
        for _ in range(n):
            mask = union((outward & (goes[0::2] & mask != 0)) * own[0::2])
        sides.append(mask)
    escapes = goes & np.where(right, *sides) != 0
    return unreachable, escapes.T


def _simulate_array(n: int, cutoff: int, indices) -> tuple[Counter, int]:
    """Run the machines with the given indices (a range or an array) in
    vectorized lockstep.

    Returns (output counts before complement-symmetrization, maximum steps
    among halters).  Machines that provably never halt are dropped, which
    changes neither result (see ``_never_halts``):

    * before step 1, every machine none of whose states reachable from
      state 1 has a halting entry: the machine only ever visits those states;
    * at the step where a machine moves past its visited segment [mn, mx]
      into a state that, reading a blank, keeps moving outward into a state
      that does the same: every cell beyond the segment is blank, so it
      reads blanks and never halts.

    The tape is allocated once for the machines that pass the first rule;
    each step compacts only the per-machine vectors, and a halter's output
    is read off its tape row at the step where it halts.
    """
    base = 4 * n + 2
    if isinstance(indices, range):  # np.array would convert it element by element
        indices = np.arange(indices.start, indices.stop, dtype=np.int64)
    x = np.array(indices, dtype=np.int64)
    digits = np.empty((len(x), 2 * n), dtype=np.int8)
    for e in range(2 * n):
        digits[:, e] = x % base
        x //= base
    unreachable, escapes = _never_halts(digits, n)
    digits, escapes = digits[~unreachable], escapes[~unreachable]
    count = len(digits)

    # Flat tables: machine i's entry (q, a) sits at 2n*i + 2*(q-1) + a, and
    # its tape cell h at width*i + h.
    width = 2 * cutoff + 1
    rows = np.arange(count, dtype=np.int64)
    dig = digits.ravel()
    esc = escapes.ravel()
    move = np.where(digits % 4 < 2, -1, 1).astype(np.int8).ravel()
    nxt = (2 * n * rows[:, None] + 2 * (digits // 4)).ravel()
    tape = np.zeros(count * width, dtype=np.int8)
    cells = memoryview(tape)
    entry = 2 * n * rows  # the current state's entry for symbol 0
    pos = width * rows + cutoff
    mn = pos.copy()
    mx = pos.copy()

    counts: Counter = Counter()
    max_steps = 0
    for step in range(1, cutoff + 1):
        if not pos.size:
            break
        e = entry + tape[pos]
        d = dig[e]
        tape[pos] = d & 1  # a halting digit 4n + w writes w, since 4n is even
        halt = d >= 4 * n
        if halt.any():
            max_steps = step
            counts.update(cells[lo:hi].tobytes() for lo, hi in zip(mn[halt].tolist(), (mx[halt] + 1).tolist()))
        pos = pos + move[e]
        out = (pos > mx) | (pos < mn)
        np.maximum(mx, pos, out=mx)
        np.minimum(mn, pos, out=mn)
        entry = nxt[e]
        drop = halt | (out & esc[e])
        if drop.any():
            keep = ~drop
            pos, entry, mn, mx = pos[keep], entry[keep], mn[keep], mx[keep]
    return Counter({raw.translate(_TO_TEXT).decode(): c for raw, c in counts.items()}), max_steps


def max_halting_steps(n: int, cutoff: int = DEFAULT_CUTOFF) -> int:
    """Largest step count of any halting machine in the class (<= cutoff)."""
    _, jobs = _machine_jobs(n, cutoff, sample=None, sample_seed=0, allow_long_run=True, workers=1)
    return max(_simulate_array(n, cutoff, job)[1] for job in jobs)


@dataclass(repr=False)
class CtmTable:
    """Output-frequency table mapping strings to (count, ctm bits)."""

    n: int
    k: int
    cutoff: int
    total: int
    halting: int
    entries: dict[str, tuple[int, float]]
    sampled: bool = False

    def __post_init__(self):
        self.entries = dict(self.entries)
        # An unseen block scores one bit over the largest value at its length.
        self._fallback: dict[int, float] = {}
        for s, (_, value) in sorted(self.entries.items(), key=lambda item: item[1][1]):
            self._fallback[len(s)] = value + 1.0

    def __repr__(self) -> str:
        return (
            f"CtmTable(n={self.n}, k={self.k}, cutoff={self.cutoff}, total={self.total}, "
            f"halting={self.halting}, entries={len(self.entries)}, sampled={self.sampled})"
        )

    def lookup(self, block: str) -> float:
        """CTM value of a block, or max-at-its-length + 1 bit if unseen."""
        if not block:
            raise ValueError("cannot look up an empty block")
        if any(c not in "01" for c in block):
            raise ValueError(f"block {block!r} is not over the table's 0/1 alphabet")
        hit = self.entries.get(block)
        if hit is not None:
            return hit[1]
        fallback = self._fallback.get(len(block))
        if fallback is None:
            raise CoverageError(
                f"table for ({self.n},{self.k}) has no outputs of length {len(block)}"
            )
        return fallback

    def covered_counts(self) -> dict[int, int]:
        """How many distinct strings the table holds, per length."""
        return dict(sorted(Counter(map(len, self.entries)).items()))

    def fully_covered_lengths(self) -> list[int]:
        """Lengths L for which all 2^L strings are present."""
        return [L for L, c in self.covered_counts().items() if c == 2**L]


def _stratified_sample(total: int, size: int, seed: int) -> np.ndarray:
    """One uniform index per stratum of an even partition of the class: the
    same draws, in order, as ``lo + stream.next_below(width)`` per stratum."""
    stream = Stream("ctm-sample", seed)
    i = np.arange(size + 1, dtype=np.int64)
    bounds = i * (total // size) + i * (total % size) // size  # i * total // size without overflow
    lo, width = bounds[:-1], np.diff(bounds).astype(np.uint64)
    # next_below's rejection rule: a word above the last whole multiple of
    # the width is drawn again, so stratum j takes the first word after
    # stratum j - 1's that is at most its limit.
    limit = np.uint64(_MASK64) - (np.uint64(_MASK64) % width + np.uint64(1)) % width
    picks = np.empty(size, dtype=np.int64)
    done, words = 0, np.empty(0, dtype=np.uint64)
    while done < size:
        if not words.size:  # a block at a time bounds the Python ints alive at once
            words = np.array(stream.next_words(min(size - done, _SAMPLE_BLOCK)), dtype=np.uint64)
        rejected = np.flatnonzero(words > limit[done : done + words.size])
        ok = rejected[0] if rejected.size else words.size
        picks[done : done + ok] = lo[done : done + ok] + (words[:ok] % width[done : done + ok]).astype(np.int64)
        done += ok
        words = words[ok + 1 :]
    return picks


def _budget_chunks(items, item_bytes: int) -> list:
    """``items`` cut into consecutive runs of at most ``_TAPE_BYTES`` bytes,
    at ``item_bytes`` each, and at least one item per run."""
    size = max(1, _TAPE_BYTES // item_bytes)
    return [items[lo : lo + size] for lo in range(0, len(items), size)]


def _machine_jobs(n, cutoff, sample, sample_seed, allow_long_run, workers):
    """(machines covered, index chunks): contiguous ranges of the whole
    class, or consecutive slices of a stratified sample of it, cut small
    enough that every worker gets a chunk and their tapes fit in _TAPE_BYTES."""
    total_class = class_size(n)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    tape = 2 * cutoff + 1
    if tape > _TAPE_BYTES:
        raise ValueError(f"cutoff {cutoff} needs a {tape}-byte tape, over the {_TAPE_BYTES}-byte limit")
    if sample is None:
        if n > 4:
            raise ValueError(
                f"full enumeration of {total_class} machines at n={n} is not supported; "
                "pass sample= to build a sampled table"
            )
        if n == 4 and not allow_long_run:
            raise ValueError(
                "full (4,2) enumeration takes hours; pass allow_long_run=True "
                "or sample= for a sampled table"
            )
        indices = range(total_class)
    else:
        if total_class > 1 << 63:  # the last index would not fit int64
            raise ValueError(f"the ({n},2) class has {total_class} machines, too many for int64 indices")
        if not 1 <= sample <= total_class:
            raise ValueError(f"sample size must be in [1, {total_class}]")
        if 8 * sample > _TAPE_BYTES:  # one int64 index per sampled machine
            raise ValueError(f"sample of {sample} machines is over the {_TAPE_BYTES // 8}-machine limit")
        indices = _stratified_sample(total_class, sample, sample_seed)
    size = min(1 << 18, _TAPE_BYTES // tape, -(-len(indices) // max(workers, 1)))
    return len(indices), [indices[lo : lo + size] for lo in range(0, len(indices), size)]


def build_table(
    n: int,
    cutoff: int = DEFAULT_CUTOFF,
    workers: int = 1,
    sample: int | None = None,
    sample_seed: int = 0,
    allow_long_run: bool = False,
) -> CtmTable:
    """Enumerate (or sample) the machine class and tally halting outputs.

    The machines are cut into chunks of consecutive indices (or of
    consecutive sample entries), of at most 2^18 default-cutoff tapes and
    short enough to give every worker one; a cutoff longer than that budget,
    or a sample whose int64 indices exceed it, raises ValueError.  Chunks
    may be simulated by any number of worker processes, and because merging
    counts is a commutative integer sum the resulting table does not depend
    on ``workers`` or scheduling.
    """
    total, jobs = _machine_jobs(n, cutoff, sample, sample_seed, allow_long_run, workers)
    raw: Counter = Counter()
    for part, _ in _pmap(partial(_simulate_array, n, cutoff), jobs, workers):
        raw += part

    counts: Counter = Counter()
    for s, c in raw.items():
        counts[s] += c
        counts[s.translate(_COMPLEMENT)] += c
    halting = sum(counts.values())
    if halting == 0:
        raise ValueError(f"no machine of the ({n},2) class halted within {cutoff} steps")
    # The value depends on the count alone, so equal counts (a string and its
    # complement at least) share one (count, value) pair, and interned output
    # strings are shared across tables: a caller holding many tables holds
    # each string and pair once.
    pairs = {c: (c, -math.log2(c / halting)) for c in set(counts.values())}
    entries = {sys.intern(s): pairs[c] for s, c in counts.items()}
    return CtmTable(
        n=n,
        k=2,
        cutoff=cutoff,
        total=total,
        halting=halting,
        entries=entries,
        sampled=sample is not None,
    )


# The file's header lines, in order: every CtmTable field but the entries.
_HEADER = ("n", "k", "cutoff", "total", "halting", "sampled")


def _sort_key(item):
    s = item[0]
    return (len(s), s)


def save_table(table: CtmTable, path) -> None:
    """Write the documented text format (sorted, 12-digit ctm values)."""
    lines = [f"#{key}={str(getattr(table, key)).lower()}" for key in _HEADER]  # sampled as true/false
    for s, (count, value) in sorted(table.entries.items(), key=_sort_key):
        lines.append(f"{s}\t{count}\t{value:.12f}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_table(path) -> CtmTable:
    """Read and fully validate a table file; raises CorruptTableError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header: dict[str, str] = {}
    body_start = 0
    for line in lines:
        if not line.startswith("#"):
            break
        key, _, value = line[1:].partition("=")
        header[key] = value
        body_start += 1
    if any(key not in header for key in _HEADER):
        raise CorruptTableError(f"{path}: missing or malformed header lines")
    *numbers, flag = (header[key] for key in _HEADER)
    try:
        n, k, cutoff, total, halting = map(int, numbers)
    except ValueError as exc:
        raise CorruptTableError(f"{path}: non-integer header field") from exc
    if flag not in ("true", "false"):
        raise CorruptTableError(f"{path}: bad sampled flag {flag!r}")
    if k != 2:
        raise CorruptTableError(f"{path}: k={k}, but machines have 2 symbols")
    if not 1 <= n <= 6:  # 6: the largest class with int64 indices; checked before class_size grows huge
        raise CorruptTableError(f"{path}: n={n} outside 1..6")
    if cutoff < 1:
        raise CorruptTableError(f"{path}: cutoff={cutoff} below 1")
    if not 1 <= total <= class_size(n) or (flag == "false" and total != class_size(n)):
        raise CorruptTableError(f"{path}: total={total} does not fit the ({n},2) class of {class_size(n)} machines")
    if not 1 <= halting <= 2 * total:  # each machine adds its output and the complement
        raise CorruptTableError(f"{path}: halting={halting} outside 1..2*total")

    entries: dict[str, tuple[int, float]] = {}
    for line in lines[body_start:]:
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorruptTableError(f"{path}: malformed entry line {line!r}")
        s, count_text, value_text = parts
        if not s or any(c not in "01" for c in s) or s in entries:
            raise CorruptTableError(f"{path}: bad or duplicate output string {s!r}")
        try:
            count = int(count_text)
        except ValueError as exc:
            raise CorruptTableError(f"{path}: non-integer count in {line!r}") from exc
        if count < 1:
            raise CorruptTableError(f"{path}: non-positive count in {line!r}")
        value = -math.log2(count / halting)
        if f"{value:.12f}" != value_text:
            raise CorruptTableError(
                f"{path}: ctm value {value_text} does not match count {count} (expected {value:.12f})"
            )
        entries[s] = (count, value)
    if not entries:
        raise CorruptTableError(f"{path}: table has no entries")
    if sum(c for c, _ in entries.values()) != halting:
        raise CorruptTableError(f"{path}: halting count {halting} != sum of entry counts")
    return CtmTable(n=n, k=k, cutoff=cutoff, total=total, halting=halting, entries=entries, sampled=flag == "true")


def default_table(n: int = 3):
    """Locate the default table: $CABDM_TABLE_DIR first, then package data."""
    name = f"ctm_{n}_2.txt"
    env_dir = os.environ.get(ENV_TABLE_DIR)
    if env_dir:
        candidate = os.path.join(env_dir, name)
        if os.path.exists(candidate):
            return load_table(candidate)
    ref = resources.files("cabdm.data").joinpath(name)
    if not ref.is_file():
        raise FileNotFoundError(f"no packaged CTM table {name}; build one with build_table/ctm-build")
    with resources.as_file(ref) as real_path:
        return load_table(real_path)
