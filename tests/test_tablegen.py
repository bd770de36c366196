"""Duty-table generation: admissibility, caps, rotations, fairness."""

import numpy as np
import pytest

from manpower import (
    ConfigurationError,
    HeadcountVector,
    RotationSpec,
    SuitablePolicy,
    TableGenerationError,
    default_max_assignments,
    eval_atom,
    atom,
    generate_rotation,
    generate_table,
    rotation_matrix,
    table_to_tensor,
    validate_table,
)
from manpower.instances import micro_instance

MEMBERS = tuple(f"m{i}" for i in range(6))


class TestGeneration:
    def test_no_repeats_within_a_day(self):
        table = generate_table(MEMBERS, days=10, per_day=3, seed=0)
        for day in table.picks:
            assert len(set(day)) == len(day) == 3

    def test_replay_validates(self):
        policy = SuitablePolicy(max_assignments=6)
        table = generate_table(MEMBERS, days=8, per_day=3, policy=policy, seed=1)
        assert validate_table(table, policy)

    def test_replay_rejects_tampering(self):
        policy = SuitablePolicy(max_assignments=2)
        table = generate_table(MEMBERS, days=4, per_day=3, policy=policy, seed=2)
        # hand m0 every day: breaks the cap during replay
        broken = table.picks[:3] + ((table.picks[3][0],) * 3,)
        from manpower.tablegen import ScheduleTable

        tampered = ScheduleTable(table.members, broken)
        assert not validate_table(tampered, policy)

    def test_cap_respected(self):
        policy = SuitablePolicy(max_assignments=5)  # capacity 30 for 24 slots
        table = generate_table(MEMBERS, days=8, per_day=3, policy=policy, seed=3)
        assert max(table.assignment_counts().values()) <= 5

    def test_impossible_cap_raises_with_day(self):
        policy = SuitablePolicy(max_assignments=1)
        with pytest.raises(TableGenerationError) as err:
            generate_table(MEMBERS, days=4, per_day=3, policy=policy, seed=4)
        assert err.value.day is not None
        assert 0 <= err.value.day < 4

    def test_more_picks_than_members_raises(self):
        with pytest.raises(TableGenerationError):
            generate_table(("a", "b"), days=2, per_day=3, seed=0)

    def test_custom_veto_hook(self):
        never_m0 = SuitablePolicy(allow=lambda state, member, day: member != "m0")
        table = generate_table(MEMBERS, days=6, per_day=2, policy=never_m0, seed=5)
        assert table.assignment_counts()["m0"] == 0
        assert validate_table(table, never_m0)

    def test_seed_determinism(self):
        a = generate_table(MEMBERS, days=7, per_day=2, seed=9)
        b = generate_table(MEMBERS, days=7, per_day=2, seed=9)
        assert a.picks == b.picks

    def test_duplicate_members_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_table(("a", "a"), days=1, per_day=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            generate_table(MEMBERS, days=1, per_day=1, seed=-1)


class TestDefaultCap:
    def test_covers_demand(self):
        cap = default_max_assignments(days=7, n_members=6, per_day=3)
        assert cap * 6 >= 7 * 3
        assert cap <= 7

    def test_rest_cap_floor(self):
        assert default_max_assignments(7, 10, 1, rest_cap=2) >= 5

    def test_uncoverable_demand_raises(self):
        """Two members at the 7-day ceiling fill 14 of 21 slots."""
        with pytest.raises(ConfigurationError):
            default_max_assignments(7, 2, 3)


class TestRotation:
    def test_five_people_three_posts_five_days(self):
        matrix = rotation_matrix(RotationSpec(positions=3, people=5), days=5)
        counts = np.bincount(matrix.ravel(), minlength=5)
        assert list(counts) == [3, 3, 3, 3, 3]

    def test_distinct_within_day(self):
        matrix = rotation_matrix(RotationSpec(positions=4, people=9), days=30)
        for row in matrix:
            assert len(set(row.tolist())) == 4

    def test_continues_round_the_circle(self):
        matrix = rotation_matrix(RotationSpec(positions=2, people=5), days=3)
        assert matrix.ravel().tolist() == [0, 1, 2, 3, 4, 0]

    def test_custom_order_permutes_the_cycle(self):
        # reversing the cycle order walks the pool backwards
        spec = RotationSpec(positions=2, people=5, order=lambda i: 4 - i)
        matrix = rotation_matrix(spec, days=3)
        assert matrix.ravel().tolist() == [4, 3, 2, 1, 0, 4]

    def test_custom_order_checked(self):
        bad = RotationSpec(positions=2, people=4, order=lambda i: 0)
        with pytest.raises(TableGenerationError):
            rotation_matrix(bad, days=1)
        outside = RotationSpec(positions=1, people=2, order=lambda i: 7)
        with pytest.raises(TableGenerationError):
            rotation_matrix(outside, days=1)

    def test_more_positions_than_people_rejected(self):
        with pytest.raises(ConfigurationError):
            RotationSpec(positions=5, people=3)

    def test_rotation_yields_table(self):
        table = generate_rotation(RotationSpec(positions=2, people=4), days=4,
                                  members=("ann", "bob", "cid", "dee"), job="b")
        assert table.picks[0] == ("ann", "bob")
        assert table.job == "b"
        assert validate_table(table)

    def test_rotation_default_member_names(self):
        table = generate_rotation(RotationSpec(positions=3, people=5), days=5)
        assert table.members == ("p0", "p1", "p2", "p3", "p4")
        assert set(table.assignment_counts().values()) == {3}

    def test_rotation_wrong_name_count_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_rotation(RotationSpec(positions=2, people=4), days=2, members=("x",))


class TestFairness:
    def test_long_run_load_is_uniform(self):
        # expectation: days * per_day / members picks each
        members = tuple(f"m{i}" for i in range(5))
        totals = {m: 0 for m in members}
        runs = 400
        for seed in range(runs):
            table = generate_table(members, days=6, per_day=2, seed=seed)
            for m, c in table.assignment_counts().items():
                totals[m] += c
        expected = 6 * 2 / 5 * runs
        for m, total in totals.items():
            assert abs(total - expected) / expected < 0.1

    def test_week_of_singles_respects_cap_and_shares_load(self):
        members = tuple(f"m{i}" for i in range(7))
        policy = SuitablePolicy(max_assignments=2)
        totals = {m: 0 for m in members}
        runs = 1000
        for seed in range(runs):
            table = generate_table(members, days=7, per_day=1, policy=policy, seed=seed)
            counts = table.assignment_counts()
            assert max(counts.values()) <= 2
            for m, c in counts.items():
                totals[m] += c
        for m, total in totals.items():
            assert abs(total / runs - 1.0) <= 0.1

    def test_everyone_serves_when_per_day_fills_the_roster(self):
        members = ("x", "y", "z")
        table = generate_table(members, days=4, per_day=3,
                               policy=SuitablePolicy(max_assignments=4), seed=11)
        for day in table.picks:
            assert sorted(day) == sorted(members)


class TestTensorBridge:
    def test_picked_days_become_full_days(self):
        inst = micro_instance()
        table = generate_table(("x", "y", "z"), days=2, per_day=2, seed=0, job="b")
        t = table_to_tensor(table, inst)
        assert t.n_employees == 3
        assert t.headcounts().counts == (0, 3)
        day_att = t.day_attendance()
        for d, chosen in enumerate(table.picks):
            for i, m in enumerate(table.members):
                assert day_att[i, d] == (1 if m in chosen else 0)
        # picked jobs occupy job b every day
        assert eval_atom(atom("k2", jobs=("b",)).constraint, t, None, inst)

    def test_day_count_mismatch_rejected(self):
        inst = micro_instance()
        table = generate_table(("x", "y"), days=5, per_day=1, seed=0)
        with pytest.raises(ConfigurationError):
            table_to_tensor(table, inst, job_code="a")

    def test_job_required(self):
        inst = micro_instance()
        table = generate_table(("x", "y"), days=2, per_day=1, seed=0)
        with pytest.raises(ConfigurationError):
            table_to_tensor(table, inst)
