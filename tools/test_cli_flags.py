#!/usr/bin/env python3
"""Flags of the spb CLIs: bad values exit 2 naming the flag, --help exits 0.

    python3 tools/test_cli_flags.py PATHS...

Each argument is the path of one built CLI (spb_check, spb_plan,
spb_report, spb_serve); ctest passes them all.  An int-sized flag must
never narrow a 64-bit value (--sources 4294967298 ran with s = 2) or stop
at the first junk character (--s 3abc ran with s = 3), negatives must be
rejected, and a message length above the wire limit of 2^40 bytes must be
refused instead of wrapping the wire size.  spb_check's two modes share
one source-count rule and one error rule, and the three simulating CLIs
one --faults parser.  --help and -h print the usage to stdout and exit 0,
as the bench CLIs do.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BINARIES = {}


def run_full(tool, *args):
    path = BINARIES[tool]
    return subprocess.run([path, *args], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=120)


def run(tool, *args):
    proc = run_full(tool, *args)
    return proc.returncode, proc.stderr


class CliFlags(unittest.TestCase):
    def expect_usage_error(self, tool, args, needle):
        code, err = run(tool, *args)
        self.assertEqual(code, 2, f"{tool} {' '.join(args)}: {err}")
        self.assertIn(needle, err, f"{tool} {' '.join(args)}")

    def expect_help(self, tool):
        for flag in ("--help", "-h"):
            proc = run_full(tool, flag)
            self.assertEqual(proc.returncode, 0, f"{tool} {flag}: {proc.stderr}")
            self.assertTrue(proc.stdout.startswith("usage: "), proc.stdout)
            self.assertEqual(proc.stderr, "", f"{tool} {flag}")

    def test_check_help(self):
        self.expect_help("spb_check")

    def test_plan_help(self):
        self.expect_help("spb_plan")

    def test_report_help(self):
        self.expect_help("spb_report")

    def test_serve_help(self):
        self.expect_help("spb_serve")

    def test_int_flags_do_not_narrow(self):
        for tool in ("spb_report", "spb_plan"):
            self.expect_usage_error(tool, ["--sources", "4294967298"],
                                    "--sources '4294967298'")
        self.expect_usage_error("spb_plan", ["--replay", "4294967297"],
                                "--replay")
        self.expect_usage_error("spb_serve", ["--workers", "4294967297"],
                                "--workers")
        self.expect_usage_error("spb_serve", ["--demo", "4294967297"],
                                "--demo")

    def test_removed_flag_is_unknown(self):
        # The simulator has one event loop; the flag that picked a second
        # one is gone and must not be accepted silently.
        self.expect_usage_error("spb_report", ["--sim-threads", "4294967297"],
                                "unknown option --sim-threads")

    def test_int_flags_parse_strictly(self):
        for mode in ([], ["--certify"]):
            self.expect_usage_error("spb_check", [*mode, "--s", "3abc"],
                                    "--s '3abc'")
            self.expect_usage_error("spb_check", [*mode, "--s", "-5"],
                                    "--s '-5'")
        self.expect_usage_error("spb_check", ["--random", "-2"],
                                "--random '-2'")
        self.expect_usage_error("spb_check", ["--jobs", "2x"], "--jobs '2x'")
        self.expect_usage_error("spb_check", ["--bytes", "-1"],
                                "--bytes '-1'")
        self.expect_usage_error("spb_check", ["--bytes", "1099511627777"],
                                "exceeds the maximum 1099511627776")

    def test_len_is_capped_at_the_wire_limit(self):
        for args in (["--len", "18446744073709551615", "--execute"],
                     ["--len", "1099511627777"]):
            self.expect_usage_error("spb_plan", ["--machine", "paragon4x4",
                                                 *args],
                                    "exceeds the maximum 1099511627776")
        self.expect_usage_error("spb_report",
                                ["--machine", "paragon4x4", "--len",
                                 "18446744073709551615"],
                                "exceeds the maximum 1099511627776")

    def test_check_modes_share_the_source_count_rule(self):
        # s = min(p, --s or max(2, p/4)), and --random draws s from
        # [min(2, p), p]: one rank and an --s above p run in either mode.
        for mode in ([], ["--certify"]):
            for args in (["--machine", "paragon1x1"],
                         ["--machine", "paragon2x2", "--s", "9"],
                         ["--machine", "paragon1x1", "--random", "3"]):
                proc = run_full("spb_check", *mode, *args, "--algo",
                                "2-Step", "--dist", "R")
                self.assertEqual(proc.returncode, 0,
                                 f"{mode + args}: {proc.stdout}{proc.stderr}")

    def test_check_failing_combo_does_not_end_the_sweep(self):
        # Part_Lin cannot partition one processor: its combo prints a FAIL
        # line, every later algorithm still runs, and --out is written.
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "certs.json")
            for mode in ([], ["--certify", "--out", out]):
                proc = run_full("spb_check", *mode, "--machine", "paragon1x1",
                                "--s", "1", "--algo", "all", "--dist", "R")
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertIn("FAIL paragon1x1  Part_Lin  R", proc.stdout)
                self.assertIn("Hier_2Step", proc.stdout)
            with open(out, encoding="utf-8") as f:
                self.assertEqual(len(json.load(f)), 16)

    def test_certify_rejects_dup_chunk(self):
        # Chunk algebra is the analyzer's: --certify refuses the mutation
        # and `all` leaves it out.
        self.expect_usage_error("spb_check",
                                ["--certify", "--mutate", "dup-chunk"],
                                "the analyzer")
        proc = run_full("spb_check", "--certify", "--machine", "paragon4x4",
                        "--algo", "2-Step", "--s", "4", "--mutate", "all",
                        "--expect-rejection")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("self-test ok: 3/3", proc.stdout)

    def test_faults_seed_is_parsed_one_way(self):
        # spb_check, spb_plan and spb_report parse --faults [SEED:]SPEC
        # with one fault:: helper: a bad seed exits 2 with the same text.
        messages = set()
        for tool in ("spb_check", "spb_plan", "spb_report"):
            code, err = run(tool, "--faults", "x:drop=0.1")
            self.assertEqual(code, 2, f"{tool}: {err}")
            self.assertIn("fault seed in --faults ([SEED:]SPEC) 'x'", err)
            messages.add(err.removeprefix(f"{tool}: "))
        self.assertEqual(len(messages), 1, messages)

    def test_oversized_mesh_names_the_spec(self):
        self.expect_usage_error("spb_report",
                                ["--machine", "paragon46341x46341"],
                                "'paragon46341x46341' is too large")


def main():
    for path in sys.argv[1:]:
        BINARIES[os.path.basename(path)] = path
    missing = {"spb_check", "spb_plan", "spb_report",
               "spb_serve"} - BINARIES.keys()
    if missing:
        print(f"usage: {sys.argv[0]} PATHS... (missing {sorted(missing)})",
              file=sys.stderr)
        return 2
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(CliFlags)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
