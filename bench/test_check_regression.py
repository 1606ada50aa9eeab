#!/usr/bin/env python3
"""Unit tests for check_regression.py — the tier-1 perf-trajectory guard.

The guard's exit codes ARE its API (ctest reads nothing else), so every
test pins main()'s return value for one input shape.  The first-run
cases (empty file, single point) are regression tests: the guard used to
exit 2 on an empty trajectory, which made every brand-new bench file
fail tier-1 before its first honest point could land.

Run directly (python3 test_check_regression.py) or via ctest
(check_regression_unit).
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_regression  # noqa: E402


def run_main(content, *flags):
    """Writes `content` to a temp JSONL file and runs main() over it."""
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False
    ) as fh:
        fh.write(content)
        path = fh.name
    try:
        return check_regression.main(["check_regression.py", *flags, path])
    finally:
        os.unlink(path)


class FirstRunTest(unittest.TestCase):
    def test_empty_file_passes_every_mode(self):
        for flags in (
            (),
            ("--overhead",),
            ("--recovery",),
            ("--gateway",),
            ("--batch",),
        ):
            self.assertEqual(run_main("", *flags), 0, flags)

    def test_blank_lines_only_is_still_first_run(self):
        self.assertEqual(run_main("\n\n  \n"), 0)

    def test_single_point_has_nothing_to_compare(self):
        self.assertEqual(
            run_main('{"label":"a","median_us":{"omp":10.0}}\n'), 0
        )

    def test_missing_file_is_still_an_error(self):
        self.assertEqual(
            check_regression.main(
                ["check_regression.py", "/nonexistent/never.json"]
            ),
            2,
        )


class DefaultModeTest(unittest.TestCase):
    def test_flat_trajectory_passes(self):
        content = (
            '{"label":"a","median_us":{"omp":10.0}}\n'
            '{"label":"b","median_us":{"omp":10.5}}\n'
        )
        self.assertEqual(run_main(content), 0)

    def test_regression_beyond_threshold_fails(self):
        content = (
            '{"label":"a","median_us":{"omp":10.0}}\n'
            '{"label":"b","median_us":{"omp":20.0}}\n'
        )
        self.assertEqual(run_main(content), 1)

    def test_malformed_json_is_an_error(self):
        with self.assertRaises(SystemExit):
            run_main("{not json}\n")

    def test_nonpositive_value_is_an_error(self):
        with self.assertRaises(SystemExit):
            run_main('{"label":"a","median_us":{"omp":0.0}}\n')


class MetricsAliasTest(unittest.TestCase):
    def test_metrics_key_feeds_the_same_series(self):
        content = (
            '{"label":"a","metrics":{"gw_frames_per_s":200000.0}}\n'
            '{"label":"b","metrics":{"gw_frames_per_s":50000.0}}\n'
        )
        series = None
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as fh:
            fh.write(content)
            path = fh.name
        try:
            series = check_regression.load_series(path)
        finally:
            os.unlink(path)
        self.assertEqual(
            series["gw_frames_per_s"],
            [("a", 200000.0), ("b", 50000.0)],
        )

    def test_point_may_mix_both_keys(self):
        content = (
            '{"label":"a","median_us":{"lat":5.0},'
            '"metrics":{"rate":9.0}}\n'
        )
        self.assertEqual(run_main(content), 0)


class GatewayModeTest(unittest.TestCase):
    GOOD = (
        '{"label":"g","metrics":{"gw_frames_per_s":150000.0,'
        '"gw_p99_ingest_us":5000.0}}\n'
    )

    def test_healthy_point_passes(self):
        self.assertEqual(run_main(self.GOOD, "--gateway"), 0)

    def test_throughput_below_floor_fails(self):
        content = (
            '{"label":"g","metrics":{"gw_frames_per_s":90000.0,'
            '"gw_p99_ingest_us":5000.0}}\n'
        )
        self.assertEqual(run_main(content, "--gateway"), 1)

    def test_p99_above_cap_fails(self):
        content = (
            '{"label":"g","metrics":{"gw_frames_per_s":150000.0,'
            '"gw_p99_ingest_us":50000.0}}\n'
        )
        self.assertEqual(run_main(content, "--gateway"), 1)

    def test_newest_point_wins(self):
        # An old unhealthy point is history, not a failure.
        content = (
            '{"label":"old","metrics":{"gw_frames_per_s":1.0,'
            '"gw_p99_ingest_us":999999.0}}\n' + self.GOOD
        )
        self.assertEqual(run_main(content, "--gateway"), 0)

    def test_points_without_gateway_keys_exit_2(self):
        self.assertEqual(
            run_main('{"label":"a","median_us":{"omp":1.0}}\n', "--gateway"),
            2,
        )


class BatchModeTest(unittest.TestCase):
    GOOD = (
        '{"label":"b","median_us":{'
        '"sweep_dense_n4096":800.0,"sweep_fastdct_n4096":100.0},'
        '"state_bytes":{"sweep_dense_n4096":16777216,'
        '"sweep_fastdct_n4096":40000}}\n'
    )

    def test_healthy_point_passes(self):
        self.assertEqual(run_main(self.GOOD, "--batch"), 0)

    def test_operator_speedup_under_floor_fails(self):
        content = (
            '{"label":"b","median_us":{'
            '"sweep_dense_n4096":300.0,"sweep_fastdct_n4096":100.0}}\n'
        )
        self.assertEqual(run_main(content, "--batch"), 1)

    def test_retired_omp_batch_pair_is_not_gated(self):
        # omp_b1/omp_b64 at 2.5x was under the old 3x batch floor; the
        # leg is retired with batch OMP, so only the sweep pair counts.
        content = (
            '{"label":"b","median_us":{"omp_b1":50.0,"omp_b64":20.0,'
            '"sweep_dense_n4096":800.0,"sweep_fastdct_n4096":100.0}}\n'
        )
        self.assertEqual(run_main(content, "--batch"), 0)

    def test_omp_batch_only_point_is_skipped(self):
        # A newest point carrying only the historical omp_b* keys is not
        # checked; the sweep floor reads the older point that has them.
        content = self.GOOD + (
            '{"label":"c","median_us":{"omp_b1":10.0,"omp_b64":10.0}}\n'
        )
        self.assertEqual(run_main(content, "--batch"), 0)
        # Alone it gates nothing: the sweep leg reads "skipped" and the
        # run exits 2 (no gated pair), not 1 (regression).
        self.assertEqual(
            run_main(
                '{"label":"c","median_us":{"omp_b1":10.0,"omp_b64":10.0}}\n',
                "--batch",
            ),
            2,
        )

    def test_newest_point_wins(self):
        # An old under-floor point is history, not a failure.
        content = (
            '{"label":"old","median_us":{'
            '"sweep_dense_n4096":10.0,"sweep_fastdct_n4096":10.0}}\n'
            + self.GOOD
        )
        self.assertEqual(run_main(content, "--batch"), 0)

    def test_points_without_batch_keys_exit_2(self):
        self.assertEqual(
            run_main('{"label":"a","median_us":{"omp":1.0}}\n', "--batch"),
            2,
        )

    def test_state_bytes_not_gated_by_trajectory_mode(self):
        # "state_bytes" is reporting, not a latency series: a 10x jump in
        # it must not trip the default trajectory comparison.
        content = (
            '{"label":"a","median_us":{"sweep_dense_n4096":90.0},'
            '"state_bytes":{"sweep_dense_n4096":1000}}\n'
            '{"label":"b","median_us":{"sweep_dense_n4096":91.0},'
            '"state_bytes":{"sweep_dense_n4096":99999999}}\n'
        )
        self.assertEqual(run_main(content), 0)

    def test_explicit_floor_overrides_default(self):
        # 8x operator speedup passes the default 5.0 floor but fails 10.0.
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as fh:
            fh.write(self.GOOD)
            path = fh.name
        try:
            self.assertEqual(
                check_regression.main(["check_regression.py", "--batch", path]),
                0,
            )
            self.assertEqual(
                check_regression.main(
                    ["check_regression.py", "--batch", path, "10.0"]
                ),
                1,
            )
        finally:
            os.unlink(path)


class OverheadAndRecoveryStillWorkTest(unittest.TestCase):
    def test_overhead_pair_over_budget_fails(self):
        content = (
            '{"label":"o","median_us":{"omp_detached":10.0,'
            '"omp_armed":12.0}}\n'
        )
        self.assertEqual(run_main(content, "--overhead"), 1)

    def test_overhead_pair_within_budget_passes(self):
        content = (
            '{"label":"o","median_us":{"omp_detached":10.0,'
            '"omp_armed":10.2}}\n'
        )
        self.assertEqual(run_main(content, "--overhead"), 0)

    def test_recovery_over_budget_fails(self):
        content = (
            '{"label":"r","median_us":{"checkpoint_write_us":60000.0,'
            '"checkpoint_restore_us":1000.0}}\n'
        )
        self.assertEqual(run_main(content, "--recovery"), 1)


if __name__ == "__main__":
    unittest.main()
