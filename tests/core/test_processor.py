"""Tests for the CORD processor-side state machine (Algorithm 1)."""

import pytest

from repro.config import CordConfig
from repro.core import CordProcessorState
from repro.core.messages import RelaxedMeta
from repro.core.processor import StallReason


def make_proc(**overrides):
    return CordProcessorState(0, CordConfig(**overrides))


class TestRelaxedStores:
    def test_relaxed_embeds_current_epoch(self):
        proc = make_proc()
        meta = proc.on_relaxed_store(3)
        assert meta.proc == 0
        assert meta.epoch == 0

    def test_relaxed_increments_per_directory_counter(self):
        proc = make_proc()
        proc.on_relaxed_store(3)
        proc.on_relaxed_store(3)
        proc.on_relaxed_store(5)
        assert proc.store_counters.get(3) == 2
        assert proc.store_counters.get(5) == 1

    def test_relaxed_never_changes_epoch(self):
        proc = make_proc()
        for _ in range(10):
            proc.on_relaxed_store(1)
        assert proc.epoch.value == 0

    def test_relaxed_stall_on_counter_table_full(self):
        proc = make_proc(proc_store_counter_entries=2)
        proc.on_relaxed_store(0)
        proc.on_relaxed_store(1)
        reason = proc.relaxed_stall_reason(2)
        assert reason is not None
        assert reason.code == "proc-store-counter-full"
        # Existing directories are still fine.
        assert proc.relaxed_stall_reason(1) is None

    def test_relaxed_stall_on_counter_overflow(self):
        proc = make_proc(counter_bits=2)  # modulus 4
        for _ in range(3):
            proc.on_relaxed_store(0)
        reason = proc.relaxed_stall_reason(0)
        assert reason is not None
        assert reason.code == "store-counter-overflow"

    def test_try_relaxed_store_checks_once_and_issues(self):
        proc = make_proc(counter_bits=2)  # modulus 4
        for expected in (1, 2, 3):
            meta = proc.try_relaxed_store(0)
            assert meta == RelaxedMeta(proc=0, epoch=0)
            assert proc.store_counters.get(0) == expected
        reason = proc.try_relaxed_store(0)
        assert isinstance(reason, StallReason)
        assert reason.code == "store-counter-overflow"
        # A stalled attempt changes nothing.
        assert proc.store_counters.get(0) == 3
        assert proc.relaxed_issued == 3

    def test_issuing_while_stalled_raises(self):
        proc = make_proc(counter_bits=2)
        for _ in range(3):
            proc.on_relaxed_store(0)
        with pytest.raises(RuntimeError):
            proc.on_relaxed_store(0)


class TestReleaseStores:
    def test_release_embeds_counter_and_advances_epoch(self):
        proc = make_proc()
        proc.on_relaxed_store(3)
        proc.on_relaxed_store(3)
        issue = proc.on_release_store(3)
        assert issue.release.epoch == 0
        assert issue.release.counter == 2
        assert issue.release.last_prev_epoch is None
        assert proc.epoch.value == 1

    def test_release_resets_all_store_counters(self):
        proc = make_proc()
        proc.on_relaxed_store(1)
        proc.on_relaxed_store(2)
        proc.on_release_store(1)
        assert proc.store_counters.get(1, 0) == 0
        assert proc.store_counters.get(2, 0) == 0

    def test_release_tracks_unacked_epoch(self):
        proc = make_proc()
        proc.on_release_store(4)
        assert proc.unacked_epochs_for(4) == [0]
        assert proc.total_unacked() == 1

    def test_last_prev_epoch_chains_same_directory(self):
        proc = make_proc()
        first = proc.on_release_store(4)
        second = proc.on_release_store(4)
        assert first.release.last_prev_epoch is None
        assert second.release.last_prev_epoch == 0

    def test_last_prev_epoch_not_set_after_ack(self):
        proc = make_proc()
        proc.on_release_store(4)
        proc.on_release_ack(4, 0)
        issue = proc.on_release_store(4)
        assert issue.release.last_prev_epoch is None

    def test_ack_for_unknown_epoch_raises(self):
        proc = make_proc()
        with pytest.raises(RuntimeError):
            proc.on_release_ack(4, 0)


class TestPendingDirectories:
    def test_pending_includes_relaxed_and_unacked(self):
        proc = make_proc()
        proc.on_relaxed_store(1)          # relaxed in current epoch
        proc.on_release_store(2)          # unacked release at dir 2
        assert proc.pending_directories() == [2]  # counters reset by release
        proc.on_relaxed_store(3)
        assert proc.pending_directories() == [2, 3]

    def test_pending_excludes_destination(self):
        proc = make_proc()
        proc.on_relaxed_store(1)
        proc.on_relaxed_store(2)
        assert proc.pending_directories(exclude=2) == [1]

    def test_release_notifications_cover_pending_dirs(self):
        proc = make_proc()
        proc.on_relaxed_store(1)
        proc.on_relaxed_store(1)
        proc.on_relaxed_store(2)
        issue = proc.on_release_store(5)
        assert issue.release.noti_cnt == 2
        assert issue.pending_directory_count == 2
        targets = {d for d, _ in issue.notifications}
        assert targets == {1, 2}
        by_dir = dict(issue.notifications)
        assert by_dir[1].counter == 2
        assert by_dir[2].counter == 1
        assert all(m.noti_dst == 5 for _, m in issue.notifications)

    def test_destination_relaxed_not_notified(self):
        proc = make_proc()
        proc.on_relaxed_store(5)
        issue = proc.on_release_store(5)
        assert issue.release.counter == 1
        assert issue.release.noti_cnt == 0


class TestStallConditions:
    def test_unacked_table_full_stalls_release(self):
        proc = make_proc(proc_unacked_epoch_entries=2)
        proc.on_release_store(0)
        proc.on_release_store(0)
        reason = proc.release_stall_reason(0)
        assert reason is not None
        assert reason.code == "unacked-table-full"

    def test_ack_clears_unacked_stall(self):
        proc = make_proc(proc_unacked_epoch_entries=2)
        proc.on_release_store(0)
        proc.on_release_store(0)
        proc.on_release_ack(0, 0)
        assert proc.release_stall_reason(0) is None

    def test_epoch_alias_stalls_release(self):
        proc = make_proc(epoch_bits=2, proc_unacked_epoch_entries=8,
                         dir_store_counter_entries_per_proc=16,
                         dir_notification_entries_per_proc=16)
        for _ in range(3):
            proc.on_release_store(0)
        reason = proc.release_stall_reason(0)
        assert reason is not None
        assert reason.code == "epoch-wrap"

    def test_dir_partition_bound_stalls_release(self):
        proc = make_proc(dir_store_counter_entries_per_proc=3)
        proc.on_release_store(0)
        proc.on_release_store(0)
        reason = proc.release_stall_reason(0)
        assert reason is not None
        assert reason.code == "dir-store-counter-full"

    def test_record_stall_counts(self):
        proc = make_proc()
        from repro.core import StallReason
        proc.record_stall(StallReason("x", "y"))
        proc.record_stall(StallReason("x", "y"))
        assert proc.stalls["x"] == 2

    def test_issue_while_release_stalled_raises(self):
        proc = make_proc(proc_unacked_epoch_entries=1)
        proc.on_release_store(0)
        with pytest.raises(RuntimeError):
            proc.on_release_store(0)
