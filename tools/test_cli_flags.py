#!/usr/bin/env python3
"""Numeric flags of the spb CLIs: bad values exit 2 naming the flag.

    python3 tools/test_cli_flags.py PATHS...

Each argument is the path of one built CLI (analyze_schedule, spb_plan,
spb_report, spb_serve, spb_verify); ctest passes them all.  An int-sized
flag must never narrow a 64-bit value (--sources 4294967298 ran with s = 2)
or stop at the first junk character (--s 3abc ran with s = 3), negatives
must be rejected, and a message length above the wire limit of 2^40 bytes
must be refused instead of wrapping the wire size.
"""

import os
import subprocess
import sys
import unittest

BINARIES = {}


def run(tool, *args):
    path = BINARIES[tool]
    proc = subprocess.run([path, *args], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


class CliFlags(unittest.TestCase):
    def expect_usage_error(self, tool, args, needle):
        code, err = run(tool, *args)
        self.assertEqual(code, 2, f"{tool} {' '.join(args)}: {err}")
        self.assertIn(needle, err, f"{tool} {' '.join(args)}")

    def test_int_flags_do_not_narrow(self):
        for tool in ("spb_report", "spb_plan"):
            self.expect_usage_error(tool, ["--sources", "4294967298"],
                                    "--sources '4294967298'")
        self.expect_usage_error("spb_report", ["--sim-threads", "4294967297"],
                                "--sim-threads")
        self.expect_usage_error("spb_plan", ["--replay", "4294967297"],
                                "--replay")
        self.expect_usage_error("spb_serve", ["--workers", "4294967297"],
                                "--workers")
        self.expect_usage_error("spb_serve", ["--demo", "4294967297"],
                                "--demo")

    def test_int_flags_parse_strictly(self):
        for tool in ("analyze_schedule", "spb_verify"):
            self.expect_usage_error(tool, ["--s", "3abc"], "--s '3abc'")
            self.expect_usage_error(tool, ["--s", "-5"], "--s '-5'")
        self.expect_usage_error("spb_verify", ["--random", "-2"],
                                "--random '-2'")
        self.expect_usage_error("analyze_schedule", ["--jobs", "2x"],
                                "--jobs '2x'")
        self.expect_usage_error("analyze_schedule", ["--bytes", "-1"],
                                "--bytes '-1'")

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

    def test_oversized_mesh_names_the_spec(self):
        self.expect_usage_error("spb_report",
                                ["--machine", "paragon46341x46341"],
                                "'paragon46341x46341' is too large")


def main():
    for path in sys.argv[1:]:
        BINARIES[os.path.basename(path)] = path
    missing = {"analyze_schedule", "spb_plan", "spb_report", "spb_serve",
               "spb_verify"} - BINARIES.keys()
    if missing:
        print(f"usage: {sys.argv[0]} PATHS... (missing {sorted(missing)})",
              file=sys.stderr)
        return 2
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(CliFlags)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
