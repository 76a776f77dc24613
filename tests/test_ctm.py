import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabdm import (
    CorruptTableError,
    CoverageError,
    Stream,
    build_table,
    class_size,
    decode_machine,
    load_table,
    max_halting_steps,
    run_machine,
    save_table,
)
from cabdm import ctm
from cabdm.cli import run
from cabdm.parallel import _pmap

COMPLEMENT = str.maketrans("01", "10")


class TestEnumeration:
    def test_class_sizes(self):
        assert class_size(1) == 36
        assert class_size(2) == 10_000
        assert class_size(3) == 7_529_536

    def test_enumerate_1_2_complete_and_ordered(self):
        machines = [decode_machine(i, 1) for i in range(class_size(1))]
        assert len(machines) == 36
        assert [m.machine_index for m in machines] == list(range(36))
        assert len({tuple(sorted(m.transitions.items())) for m in machines}) == 36

    def test_enumerate_2_2_count(self):
        tables = {tuple(sorted(decode_machine(i, 2).transitions.items())) for i in range(class_size(2))}
        assert len(tables) == 10_000

    def test_first_and_last_indices_decode(self):
        first = decode_machine(0, 2)
        last = decode_machine(class_size(2) - 1, 2)
        assert len(first.transitions) == len(last.transitions) == 4
        assert all(not t.halts for t in first.transitions.values())
        assert all(t.halts and t.write == 1 for t in last.transitions.values())

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=80)
    def test_codec_round_trip(self, n, data):
        # Entry (q, a) is digit e = 2*(q-1)+a of the index in base 4n+2: d < 4n
        # writes d&1, moves L if d%4 < 2 else R and goes to state d//4 + 1;
        # d >= 4n halts writing d-4n.
        index = data.draw(st.integers(0, class_size(n) - 1))
        machine = decode_machine(index, n)
        assert machine.machine_index == index and len(machine.transitions) == 2 * n
        base = 4 * n + 2
        for q in range(1, n + 1):
            for a in range(2):
                d = index // base ** (2 * (q - 1) + a) % base
                t = machine.transitions[(q, a)]
                if d >= 4 * n:
                    assert t.halts and (t.write, t.move, t.next_state) == (d - 4 * n, None, None)
                else:
                    assert (t.write, t.move, t.next_state) == (d & 1, "L" if d % 4 < 2 else "R", d // 4 + 1)


class TestRunMachine:
    def test_immediate_halter(self):
        # (state 1, read 0) halting with write 1: one step, output "1".
        base = 4 * 2 + 2
        machine = decode_machine(base - 1, 2)  # digit 9 in entry (1,0)
        assert machine.transitions[(1, 0)].halts
        outcome = run_machine(machine, 107)
        assert outcome.halted and outcome.steps_used == 1 and outcome.output == "1"

    def test_right_runner_never_halts(self):
        # Every entry: write 0, move R, stay in state 1 -> digit 2 everywhere.
        base = 4 * 2 + 2
        index = sum(2 * base**e for e in range(4))
        outcome = run_machine(decode_machine(index, 2), 500)
        assert not outcome.halted and outcome.output is None

    def test_cutoff_respected(self):
        base = 4 * 2 + 2
        index = sum(2 * base**e for e in range(4))
        assert run_machine(decode_machine(index, 2), 3).steps_used == 3

    def test_reference_simulator_agrees_with_table_builder(self, table22):
        # Dual route: every (2,2) machine through the plain simulator,
        # symmetrized, must reproduce the vectorized table exactly.
        raw = Counter()
        halting = 0
        for index in range(class_size(2)):
            outcome = run_machine(decode_machine(index, 2), 107)
            if outcome.halted:
                raw[outcome.output] += 1
                halting += 1
        sym = Counter()
        for s, c in raw.items():
            sym[s] += c
            sym[s.translate(COMPLEMENT)] += c
        assert dict(sym) == {s: c for s, (c, _) in table22.entries.items()}
        assert 2 * halting == table22.halting

    def test_max_halting_steps_2_2(self):
        assert max_halting_steps(2) == 6

    def test_max_halting_steps_3_2(self):
        # The (3,2) busy-beaver step count (Lin & Rado, 1965): no long-running
        # halter of the 7.5M machines is dropped as a non-halter.
        assert max_halting_steps(3) == 21


class TestTableInvariants:
    def test_counts_sum_to_halting(self, table22, table32):
        for table in (table22, table32):
            assert sum(c for c, _ in table.entries.values()) == table.halting
            assert 0 < table.halting <= table.total

    def test_complement_symmetry_exact(self, table22, table32):
        for table in (table22, table32):
            for s, (count, value) in table.entries.items():
                comp = s.translate(COMPLEMENT)
                assert table.entries[comp][0] == count
                assert table.entries[comp][1] == value

    def test_reversal_symmetry_exact(self, table22, table32):
        for table in (table22, table32):
            for s, (count, _) in table.entries.items():
                assert table.entries[s[::-1]][0] == count

    def test_single_symbols_have_max_count(self, table22, table32):
        for table in (table22, table32):
            top = max(c for c, _ in table.entries.values())
            assert table.entries["0"][0] == top
            assert table.entries["1"][0] == top
            assert table.entries["0"][0] == table.entries["1"][0]

    def test_ctm_is_log_frequency(self, table22):
        for s, (count, value) in table22.entries.items():
            assert value == -math.log2(count / table22.halting)

    def test_shipped_table_metadata(self, table32):
        assert (table32.n, table32.k, table32.cutoff) == (3, 2, 107)
        assert table32.total == 7_529_536
        assert not table32.sampled
        assert table32.fully_covered_lengths() == [1, 2, 3, 4, 5]
        assert table32.covered_counts() == {1: 2, 2: 4, 3: 8, 4: 16, 5: 32, 6: 52, 7: 14}
        assert repr(table32) == (
            "CtmTable(n=3, k=2, cutoff=107, total=7529536, halting=4294368, entries=128, sampled=False)"
        )


class TestLookup:
    def test_present_block(self, table32):
        count, value = table32.entries["01"]
        assert table32.lookup("01") == value

    def test_missing_block_gets_max_plus_one(self, table32):
        missing = "010101"
        assert missing not in table32.entries
        max_at_6 = max(v for s, (_, v) in table32.entries.items() if len(s) == 6)
        assert table32.lookup(missing) == max_at_6 + 1.0

    def test_uncovered_length_raises(self, table32):
        with pytest.raises(CoverageError):
            table32.lookup("0" * 9)

    def test_complement_equality(self, table32):
        for s in table32.entries:
            assert table32.lookup(s) == table32.lookup(s.translate(COMPLEMENT))

    def test_bad_blocks_rejected(self, table32):
        with pytest.raises(ValueError):
            table32.lookup("")
        with pytest.raises(ValueError):
            table32.lookup("012")


class TestSaveLoad:
    def test_round_trip(self, table22, tmp_path):
        path = tmp_path / "t.txt"
        save_table(table22, path)
        assert load_table(path) == table22

    def test_halting_mismatch_rejected(self, table22, tmp_path):
        path = tmp_path / "t.txt"
        save_table(table22, path)
        text = path.read_text().replace(f"#halting={table22.halting}", f"#halting={table22.halting + 2}")
        path.write_text(text)
        with pytest.raises(CorruptTableError):
            load_table(path)

    def test_ctm_value_mismatch_rejected(self, table22, tmp_path):
        path = tmp_path / "t.txt"
        save_table(table22, path)
        lines = path.read_text().splitlines()
        s, count, _ = lines[-1].split("\t")
        lines[-1] = f"{s}\t{count}\t0.000000000001"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptTableError):
            load_table(path)

    def test_truncated_entry_rejected(self, table22, tmp_path):
        path = tmp_path / "t.txt"
        save_table(table22, path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit("\t", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptTableError):
            load_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(CorruptTableError):
            load_table(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("#n=2\n#k=2\n0\t5\t1.000000000000\n")
        with pytest.raises(CorruptTableError):
            load_table(path)

    @staticmethod
    def _edited(table, tmp_path, **header):
        """``table`` saved with some header fields replaced."""
        path = tmp_path / "t.txt"
        save_table(table, path)
        lines = path.read_text().splitlines()
        for key, value in header.items():
            lines = [f"#{key}={value}" if line.startswith(f"#{key}=") else line for line in lines]
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_symbol_count_other_than_2_rejected(self, table22, tmp_path, k):
        with pytest.raises(CorruptTableError, match=f"k={k}"):
            load_table(self._edited(table22, tmp_path, k=k))

    @pytest.mark.parametrize("cutoff", [0, -5])
    def test_cutoff_below_1_rejected(self, table22, tmp_path, cutoff):
        with pytest.raises(CorruptTableError, match=f"cutoff={cutoff}"):
            load_table(self._edited(table22, tmp_path, cutoff=cutoff))

    @pytest.mark.parametrize("n", [0, 7, 10**6])
    def test_state_count_outside_1_to_6_rejected(self, table22, tmp_path, n):
        with pytest.raises(CorruptTableError, match=f"n={n} outside"):
            load_table(self._edited(table22, tmp_path, n=n))

    @pytest.mark.parametrize(
        "header",
        [
            {"total": 1},  # an unsampled table covers the whole class
            {"n": 3},  # so its total is 7,529,536, not the 10,000 of (2,2)
            {"total": 0, "sampled": "true"},
            {"total": class_size(2) + 1, "sampled": "true"},
        ],
    )
    def test_total_outside_class_rejected(self, table22, tmp_path, header):
        with pytest.raises(CorruptTableError, match="total="):
            load_table(self._edited(table22, tmp_path, **header))

    def test_halting_past_twice_total_rejected(self, table22, tmp_path):
        # Each machine adds at most its output and that output's complement.
        total = table22.halting // 2 - 1
        with pytest.raises(CorruptTableError, match="halting="):
            load_table(self._edited(table22, tmp_path, total=total, sampled="true"))
        with pytest.raises(CorruptTableError, match="halting="):
            load_table(self._edited(table22, tmp_path, halting=0))

    def test_halting_at_twice_total_accepted(self, table22, tmp_path):
        total = table22.halting // 2
        loaded = load_table(self._edited(table22, tmp_path, total=total, sampled="true"))
        assert (loaded.total, loaded.sampled) == (total, True)


class TestBuildTable:
    def test_worker_counts_agree_byte_for_byte(self, table22, tmp_path, monkeypatch):
        monkeypatch.setattr(ctm, "_TAPE_BYTES", 1000 * (2 * ctm.DEFAULT_CUTOFF + 1))  # chunks of 1000
        parallel = build_table(2, workers=2)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_table(table22, a)
        save_table(parallel, b)
        assert a.read_bytes() == b.read_bytes()

    def test_chunk_size_does_not_matter(self, table22, monkeypatch):
        monkeypatch.setattr(ctm, "_TAPE_BYTES", 77 * (2 * ctm.DEFAULT_CUTOFF + 1))  # chunks of 77
        assert build_table(2) == table22

    def test_sampled_build(self, monkeypatch):
        sampled = build_table(2, sample=500, sample_seed=3)
        assert sampled.sampled and sampled.total == 500
        assert sampled == build_table(2, sample=500, sample_seed=3)
        assert sum(c for c, _ in sampled.entries.values()) == sampled.halting
        with monkeypatch.context() as m:
            m.setattr(ctm, "_TAPE_BYTES", 100 * (2 * ctm.DEFAULT_CUTOFF + 1))  # chunks of 100
            assert sampled == build_table(2, sample=500, sample_seed=3, workers=2)
        # A sample below the default chunk size still gives each worker a chunk.
        job_counts = []

        def counting_pmap(fn, jobs, workers):
            job_counts.append(len(jobs))
            return _pmap(fn, jobs, workers)

        monkeypatch.setattr(ctm, "_pmap", counting_pmap)
        assert sampled == build_table(2, sample=500, sample_seed=3, workers=2)
        assert job_counts == [2]

    def test_resource_guards(self):
        with pytest.raises(ValueError):
            build_table(5)
        with pytest.raises(ValueError):
            build_table(4)
        with pytest.raises(ValueError):
            build_table(2, cutoff=0)

    def test_long_run_guard_rejects_before_simulating(self, monkeypatch, tmp_path, capsys):
        # Never lift the guard here: the full (4,2) enumeration takes hours.
        def must_not_run(*args):
            raise AssertionError("simulated or sampled machines before the long-run check")

        monkeypatch.setattr(ctm, "_simulate_array", must_not_run)
        monkeypatch.setattr(ctm, "_stratified_sample", must_not_run)
        with pytest.raises(ValueError, match="allow_long_run"):
            build_table(4)
        out = tmp_path / "t.txt"
        assert run(["ctm-build", "--n", "4", "--out", str(out)]) == 1
        assert "allow_long_run" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_no_halting_machine_raises_value_error(self):
        # The seed-0 sample of one (4,2) machine holds a machine that does not halt in one step.
        (index,) = ctm._stratified_sample(class_size(4), 1, 0)
        assert not run_machine(decode_machine(int(index), 4), 1).halted
        with pytest.raises(ValueError, match="no machine of the"):
            build_table(4, cutoff=1, sample=1)

    def test_cutoff_over_tape_limit_rejected_before_allocating(self, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("allocated before the cutoff check")

        monkeypatch.setattr(ctm, "_simulate_array", must_not_run)
        monkeypatch.setattr(ctm, "_stratified_sample", must_not_run)
        too_long = ctm._TAPE_BYTES // 2  # tape of 2 * cutoff + 1 cells, one over the limit
        for build in (lambda: build_table(2, cutoff=too_long),
                      lambda: build_table(5, cutoff=too_long, sample=10),
                      lambda: max_halting_steps(2, cutoff=too_long)):
            with pytest.raises(ValueError, match="tape"):
                build()
        assert run(["ctm-build", "--n", "2", "--cutoff", str(too_long)]) == 1
        # One tape below the limit is accepted, one machine per chunk.
        _, jobs = ctm._machine_jobs(2, too_long - 1, None, 0, False, 1)
        assert len(jobs) == class_size(2) and len(jobs[0]) == 1

    def test_sample_over_index_limit_rejected_before_drawing(self, monkeypatch):
        class Reached(Exception):
            pass

        def must_not_draw(*args):
            raise Reached

        monkeypatch.setattr(ctm, "_stratified_sample", must_not_draw)
        limit = ctm._TAPE_BYTES // 8  # int64 indices that fit the budget
        with pytest.raises(ValueError, match="limit"):
            build_table(5, sample=limit + 1)
        assert run(["ctm-build", "--n", "5", "--sample", str(limit + 1)]) == 1
        # The limit itself passes the check and reaches the (patched) draw.
        with pytest.raises(Reached):
            build_table(5, sample=limit)

    def test_class_past_int64_indices_rejected_before_drawing(self, monkeypatch, tmp_path):
        def must_not_draw(*args):
            raise AssertionError("drew a sample of a class whose indices do not fit int64")

        monkeypatch.setattr(ctm, "_stratified_sample", must_not_draw)
        assert class_size(6) < 1 << 63 < class_size(7)
        with pytest.raises(ValueError, match="int64"):
            build_table(7, sample=10)
        monkeypatch.chdir(tmp_path)
        assert run(["ctm-build", "--n", "7", "--sample", "10"]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_guard_lifts_with_sample_flag(self):
        table = build_table(5, sample=50, cutoff=20)
        assert table.sampled and table.total == 50


class TestStratifiedSample:
    @staticmethod
    def reference(total, size, seed):
        """One ``next_below`` call per stratum [i*total//size, (i+1)*total//size), in order."""
        stream = Stream("ctm-sample", seed)
        return [i * total // size + stream.next_below((i + 1) * total // size - i * total // size) for i in range(size)]

    @pytest.mark.parametrize(
        "total,size",
        [(36, 36), (10, 10), (36, 5), (10_000, 7), (10_000, 3_333), (class_size(4), 16_384), (class_size(6), 1_000)],
    )
    def test_one_next_below_per_stratum(self, total, size):
        # Strata of width 1 (size == total) and of two uneven widths.
        for seed in (0, 1, 9):
            picks = ctm._stratified_sample(total, size, seed)
            assert picks.dtype == np.int64 and picks.tolist() == self.reference(total, size, seed)

    def test_rejected_draws_are_drawn_again(self):
        # A width of 2^62 + 1 rejects about a quarter of all words.
        total, limit = 2**62 + 1, (1 << 64) - 1 - (1 << 64) % (2**62 + 1)
        rejected = 0
        for seed in range(20):
            for size in (1, 2, 3):
                assert ctm._stratified_sample(total, size, seed).tolist() == self.reference(total, size, seed)
            rejected += Stream("ctm-sample", seed).next_u64() > limit
        assert rejected >= 1


def digit(write, move, state):
    """The digit of a non-halting entry: write, move "L"/"R", next state."""
    return 4 * (state - 1) + 2 * (move == "R") + write


def machine_index(n, entries):
    """Index of the (n,2) machine whose entry (q, a) holds digit entries[(q, a)]."""
    return sum(d * (4 * n + 2) ** (2 * (q - 1) + a) for (q, a), d in entries.items())


def digit_rows(indices, n):
    """Each machine's 2n digits: digit e of its index in base 4n+2."""
    base = 4 * n + 2
    return np.array([[i // base**e % base for e in range(2 * n)] for i in indices], dtype=np.int8)


def first_drop(machine, unreachable, escapes, cutoff):
    """The step at which a drop rule gives up on ``machine`` (0: before step 1),
    or None if it halts or reaches the cutoff first; stepped cell by cell."""
    if unreachable:
        return 0
    tape, head, state, lo, hi = {}, 0, 1, 0, 0
    for step in range(1, cutoff + 1):
        symbol = tape.get(head, 0)
        t = machine.transitions[(state, symbol)]
        if t.halts:
            return None
        tape[head] = t.write
        head += -1 if t.move == "L" else 1
        if not lo <= head <= hi and escapes[2 * (state - 1) + symbol]:
            return step
        lo, hi, state = min(lo, head), max(hi, head), t.next_state
    return None


class TestDropRules:
    """The simulator drops machines that provably never halt; run_machine,
    which drops none, is the oracle that they never do."""

    @pytest.mark.parametrize("n,sample", [(2, None), (3, 20_000)])
    def test_dropped_machines_never_halt(self, n, sample):
        # Every (2,2) machine; a stratified sample of the (3,2) class.
        indices = range(class_size(n)) if sample is None else TestStratifiedSample.reference(class_size(n), sample, 0)
        unreachable, escapes = ctm._never_halts(digit_rows(indices, n), n)
        dropped = Counter()
        for index, skip, esc in zip(indices, unreachable, escapes):
            machine = decode_machine(index, n)
            step = first_drop(machine, skip, esc, 107)
            if step is not None:
                dropped[min(step, 1)] += 1
                assert not run_machine(machine, 107).halted, (index, step)
        # Both rules drop a good share of the machines.
        assert dropped[0] > len(indices) // 10 and dropped[1] > len(indices) // 10

    def test_sampled_4_2_build_matches_reference_census(self):
        indices = TestStratifiedSample.reference(class_size(4), 2048, 5)
        counts, halting = Counter(), 0
        for index in indices:
            outcome = run_machine(decode_machine(index, 4), 107)
            if outcome.halted:
                halting += 1
                counts[outcome.output] += 1
                counts[outcome.output.translate(COMPLEMENT)] += 1
        table = build_table(4, sample=2048, sample_seed=5)
        assert (table.total, table.halting) == (2048, 2 * halting)
        assert {s: c for s, (c, _) in table.entries.items()} == dict(counts)

    def test_unreachable_halting_state_dropped_before_step_1(self):
        # State 1 only ever goes back to state 1; only state 2 halts.
        index = machine_index(2, {(1, 0): digit(1, "L", 1), (1, 1): digit(0, "R", 1), (2, 0): 9, (2, 1): 8})
        unreachable, _ = ctm._never_halts(digit_rows([index], 2), 2)
        assert unreachable.tolist() == [True]
        assert not run_machine(decode_machine(index, 2), 107).halted
        assert ctm._simulate_array(2, 107, [index]) == (Counter(), 0)

    def test_right_runner_dropped_at_step_1(self):
        # (1,0) writes 1 and moves right in state 1: on blank cells forever.
        # Its halting entry (1,1) keeps it past the table-only rule.
        index = machine_index(2, {(1, 0): digit(1, "R", 1), (1, 1): 9, (2, 0): 8, (2, 1): 8})
        machine = decode_machine(index, 2)
        unreachable, escapes = ctm._never_halts(digit_rows([index], 2), 2)
        assert unreachable.tolist() == [False] and escapes[0].tolist() == [True, False, False, False]
        assert first_drop(machine, unreachable[0], escapes[0], 107) == 1
        assert not run_machine(machine, 107).halted

    def test_machine_that_leaves_and_returns_to_halt_is_kept(self):
        # Step 1 moves right onto a blank in state 2, step 2 comes back left,
        # step 3 reads the 1 written at step 1 and halts.
        index = machine_index(2, {(1, 0): digit(1, "R", 2), (1, 1): 9, (2, 0): digit(1, "L", 1), (2, 1): 8})
        machine = decode_machine(index, 2)
        unreachable, escapes = ctm._never_halts(digit_rows([index], 2), 2)
        assert first_drop(machine, unreachable[0], escapes[0], 107) is None
        assert run_machine(machine, 107) == ctm.RunOutcome(halted=True, steps_used=3, output="11")
        assert ctm._simulate_array(2, 107, [index]) == (Counter({"11": 1}), 3)

