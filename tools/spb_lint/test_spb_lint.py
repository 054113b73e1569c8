#!/usr/bin/env python3
"""Positive/negative fixtures for every spb_lint rule (plain unittest so
CI runs it without pytest)."""

import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import rules  # noqa: E402


def lint_snippet(body: str, rel: str = "src/coll/x.cpp") -> list[str]:
    """Writes `body` at `rel` inside a scratch tree and lints that file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
        raw = body
        text = rules.strip_comments(raw)
        tasks = rules.task_functions({path: text})
        return (rules.check_unordered_iteration(path, raw, text)
                + rules.check_banned_randomness(path, raw, text)
                + rules.check_guard_across_suspend(path, raw, text)
                + rules.check_mutable_static_state(path, raw, text)
                + rules.check_registry_catalogue(path, raw, text)
                + rules.check_coroutine_lambdas(path, raw, text)
                + rules.check_discarded_tasks(path, raw, text, tasks)
                + rules.check_streams_in_coroutines(path, raw, text))


class UnorderedIteration(unittest.TestCase):
    def test_range_for_over_unordered_map_is_flagged(self):
        findings = lint_snippet(
            "std::unordered_map<int, std::vector<int>> table;\n"
            "void f() { for (const auto& [k, v] : table) use(k); }\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("unordered-iteration", findings[0])
        self.assertIn("'table'", findings[0])

    def test_ordered_map_is_fine(self):
        findings = lint_snippet(
            "std::map<int, int> table;\n"
            "void f() { for (const auto& [k, v] : table) use(k); }\n")
        self.assertEqual(findings, [])

    def test_lookup_without_iteration_is_fine(self):
        findings = lint_snippet(
            "std::unordered_map<int, int> table;\n"
            "int f(int k) { return table.at(k); }\n")
        self.assertEqual(findings, [])

    def test_nolint_suppresses(self):
        findings = lint_snippet(
            "std::unordered_set<int> seen;\n"
            "void f() {\n"
            "  for (int k : seen)  // NOLINT: order-insensitive sum\n"
            "    total += k;\n"
            "}\n")
        self.assertEqual(findings, [])


class BannedRandomness(unittest.TestCase):
    def test_rand_in_sim_is_flagged(self):
        findings = lint_snippet("int f() { return rand() % 4; }\n",
                                rel="src/sim/x.cpp")
        self.assertEqual(len(findings), 1)
        self.assertIn("banned-randomness", findings[0])

    def test_random_device_in_plan_is_flagged(self):
        findings = lint_snippet("std::random_device rd;\n",
                                rel="src/plan/x.cpp")
        self.assertEqual(len(findings), 1)

    def test_same_code_outside_the_core_is_fine(self):
        findings = lint_snippet("int f() { return rand() % 4; }\n",
                                rel="bench/x.cpp")
        self.assertEqual(findings, [])

    def test_identifier_suffix_time_is_not_a_call(self):
        # `Runtime(...)` must not trip the \btime\( pattern.
        findings = lint_snippet("Runtime(topo, params);\n",
                                rel="src/mp/x.cpp")
        self.assertEqual(findings, [])

    def test_comments_do_not_count(self):
        findings = lint_snippet("// never call rand() here\n",
                                rel="src/mp/x.cpp")
        self.assertEqual(findings, [])


class GuardAcrossSuspend(unittest.TestCase):
    def test_guard_held_across_co_await_is_flagged(self):
        findings = lint_snippet(
            "sim::Task f() {\n"
            "  std::lock_guard<std::mutex> g(mu_);\n"
            "  co_await mailbox.recv();\n"
            "}\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("guard-across-suspend", findings[0])
        self.assertIn("lock_guard", findings[0])

    def test_guard_released_before_suspend_is_fine(self):
        findings = lint_snippet(
            "sim::Task f() {\n"
            "  { std::scoped_lock g(mu_); table[k] = v; }\n"
            "  co_await mailbox.recv();\n"
            "}\n")
        self.assertEqual(findings, [])

    def test_guard_in_plain_function_is_fine(self):
        findings = lint_snippet(
            "void f() { std::unique_lock<std::mutex> g(mu_); table[k] = v; }\n"
            "sim::Task g() { co_await mailbox.recv(); }\n")
        self.assertEqual(findings, [])


class MutableStaticState(unittest.TestCase):
    def test_static_local_in_sim_is_flagged(self):
        findings = lint_snippet(
            "int next_id() {\n"
            "  static int counter = 0;\n"
            "  return counter++;\n"
            "}\n", rel="src/sim/x.cpp")
        self.assertEqual(len(findings), 1)
        self.assertIn("mutable-global-state", findings[0])

    def test_namespace_scope_inline_variable_is_flagged(self):
        findings = lint_snippet("inline int g_hits = 0;\n",
                                rel="src/net/x.h")
        self.assertEqual(len(findings), 1)
        self.assertIn("mutable-global-state", findings[0])

    def test_thread_local_without_rationale_is_flagged(self):
        findings = lint_snippet("thread_local int cursor = -1;\n",
                                rel="src/mp/x.cpp")
        self.assertEqual(len(findings), 1)

    def test_constexpr_and_const_statics_are_fine(self):
        findings = lint_snippet(
            "static constexpr int kShards = 16;\n"
            "static const char* const kName = \"x\";\n",
            rel="src/sim/x.cpp")
        self.assertEqual(findings, [])

    def test_atomic_static_is_fine(self):
        findings = lint_snippet("static std::atomic<int> hits{0};\n",
                                rel="src/sim/x.cpp")
        self.assertEqual(findings, [])

    def test_static_member_function_is_not_a_variable(self):
        findings = lint_snippet(
            "struct S {\n"
            "  static bool earlier(const Key& a, const Key& b);\n"
            "};\n", rel="src/sim/x.h")
        self.assertEqual(findings, [])

    def test_same_code_outside_shard_dirs_is_fine(self):
        findings = lint_snippet("static int counter = 0;\n",
                                rel="src/stop/x.cpp")
        self.assertEqual(findings, [])

    def test_nolint_with_rationale_suppresses(self):
        findings = lint_snippet(
            "// NOLINTNEXTLINE(spb-mutable-global): per-thread cursor\n"
            "thread_local int cursor = -1;\n",
            rel="src/sim/x.cpp")
        self.assertEqual(findings, [])

    def test_nolint_without_rationale_does_not_suppress(self):
        findings = lint_snippet(
            "thread_local int cursor = -1;  // NOLINT\n",
            rel="src/sim/x.cpp")
        self.assertEqual(len(findings), 1)


class FlagStaticAsserts(unittest.TestCase):
    COVERED = (
        "static_assert(!stop::RunOptions{}.trace, \"\");\n"
        "static_assert(!stop::RunOptions{}.record_schedule, \"\");\n"
        "static_assert(!stop::RunOptions{}.faults.any(), \"\");\n"
        "static_assert(!stop::RunOptions{}.link_stats, \"\");\n"
        "static_assert(stop::RunOptions{}.sim_threads == 0, \"\");\n")

    def test_full_coverage_passes(self):
        text = rules.strip_comments(self.COVERED)
        self.assertEqual(
            rules.check_flag_static_asserts({Path("u.h"): text}), [])

    def test_missing_flag_is_named(self):
        partial = "\n".join(line for line in self.COVERED.splitlines()
                            if "link_stats" not in line)
        # sim_threads uses == 0 rather than ! — both forms must satisfy U4.
        text = rules.strip_comments(partial)
        findings = rules.check_flag_static_asserts({Path("u.h"): text})
        self.assertEqual(len(findings), 1)
        self.assertIn("link_stats", findings[0])


class RegistryCatalogue(unittest.TestCase):
    COMPLETE = (
        "Registry::Registry() {\n"
        "  entries_.push_back({\n"
        "      .pattern = \"meshRxC\",\n"
        "      .description = \"a mesh of \"\n"
        "                     \"R x C processors\",\n"
        "      .example = \"mesh4x4\",\n"
        "      .prefix = \"mesh\",\n"
        "      .parse = [](const std::string& s) { return mesh(s); },\n"
        "  });\n"
        "}\n")

    def test_complete_entry_passes(self):
        findings = lint_snippet(self.COMPLETE,
                                rel="src/machine/registry.cpp")
        self.assertEqual(findings, [])

    def test_missing_example_is_flagged(self):
        body = "\n".join(line for line in self.COMPLETE.splitlines()
                         if ".example" not in line)
        findings = lint_snippet(body, rel="src/machine/registry.cpp")
        self.assertEqual(len(findings), 1)
        self.assertIn("registry-catalogue", findings[0])
        self.assertIn(".example", findings[0])

    def test_empty_description_is_flagged(self):
        body = self.COMPLETE.replace(
            "      .description = \"a mesh of \"\n"
            "                     \"R x C processors\",\n",
            "      .description = \"\",\n")
        findings = lint_snippet(body, rel="src/machine/registry.cpp")
        self.assertEqual(len(findings), 1)
        self.assertIn(".description", findings[0])

    def test_real_registry_shape_passes(self):
        # Two entries, one with a lambda containing braces: the brace
        # matcher must not leak one entry's fields into the next.
        body = self.COMPLETE.replace(
            "  });\n}", "  });\n  entries_.push_back({\n"
            "      .pattern = \"ringN\",\n"
            "      .description = \"a ring\",\n"
            "      .example = \"ring8\",\n"
            "      .prefix = \"ring\",\n"
            "      .parse = [](const std::string& s) {\n"
            "        if (s.empty()) { throw 1; }\n"
            "        return ring(s);\n"
            "      },\n"
            "  });\n}")
        findings = lint_snippet(body, rel="src/machine/registry.cpp")
        self.assertEqual(findings, [])

    def test_prefix_shadowing_is_flagged(self):
        # A "t3" entry registered before "t3d": parse() would route every
        # t3d spec to the t3 parser, making the t3d entry unreachable.
        body = (
            "Registry::Registry() {\n"
            "  entries_.push_back({\n"
            "      .pattern = \"t3N\",\n"
            "      .description = \"a t3\",\n"
            "      .example = \"t38\",\n"
            "      .prefix = \"t3\",\n"
            "      .parse = [](const std::string& s) { return t3(s); },\n"
            "  });\n"
            "  entries_.push_back({\n"
            "      .pattern = \"t3dP\",\n"
            "      .description = \"a t3d\",\n"
            "      .example = \"t3d512\",\n"
            "      .prefix = \"t3d\",\n"
            "      .parse = [](const std::string& s) { return t3d(s); },\n"
            "  });\n"
            "}\n")
        findings = lint_snippet(body, rel="src/machine/registry.cpp")
        self.assertEqual(len(findings), 1)
        self.assertIn("registry-catalogue", findings[0])
        self.assertIn("prefix 't3' shadows", findings[0])
        self.assertIn("'t3d'", findings[0])

    def test_longer_prefix_registered_first_passes(self):
        # The reverse order is the correct one: "t3d" before "t3".
        body = (
            "Registry::Registry() {\n"
            "  entries_.push_back({\n"
            "      .pattern = \"t3dP\",\n"
            "      .description = \"a t3d\",\n"
            "      .example = \"t3d512\",\n"
            "      .prefix = \"t3d\",\n"
            "      .parse = [](const std::string& s) { return t3d(s); },\n"
            "  });\n"
            "  entries_.push_back({\n"
            "      .pattern = \"t3N\",\n"
            "      .description = \"a t3\",\n"
            "      .example = \"t38\",\n"
            "      .prefix = \"t3\",\n"
            "      .parse = [](const std::string& s) { return t3(s); },\n"
            "  });\n"
            "}\n")
        findings = lint_snippet(body, rel="src/machine/registry.cpp")
        self.assertEqual(findings, [])

    def test_duplicate_prefixes_are_flagged(self):
        body = RegistryCatalogue.COMPLETE.replace(
            "  });\n}", "  });\n  entries_.push_back({\n"
            "      .pattern = \"meshN\",\n"
            "      .description = \"another mesh\",\n"
            "      .example = \"mesh9\",\n"
            "      .prefix = \"mesh\",\n"
            "      .parse = [](const std::string& s) { return mesh2(s); },\n"
            "  });\n}")
        findings = lint_snippet(body, rel="src/machine/registry.cpp")
        self.assertEqual(len(findings), 1)
        self.assertIn("shadows", findings[0])

    def test_files_without_registry_entries_are_fine(self):
        findings = lint_snippet("void f() { entries.push_back(3); }\n",
                                rel="src/machine/config.cpp")
        self.assertEqual(findings, [])


class CapturingCoroutineLambda(unittest.TestCase):
    def test_capturing_coroutine_lambda_is_flagged(self):
        findings = lint_snippet(
            "auto make = [this, rank]() -> sim::Task {\n"
            "  co_await mailbox.recv();\n"
            "};\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("capturing-coroutine-lambda", findings[0])

    def test_non_coroutine_capturing_lambda_is_fine(self):
        findings = lint_snippet(
            "auto make = [this, rank]() { return run(rank); };\n")
        self.assertEqual(findings, [])

    def test_captureless_coroutine_lambda_is_fine(self):
        findings = lint_snippet(
            "auto make = []() -> sim::Task { co_return; };\n")
        self.assertEqual(findings, [])

    def test_co_keyword_in_comment_does_not_count(self):
        findings = lint_snippet(
            "auto make = [this]() { /* co_await later */ return 1; };\n")
        self.assertEqual(findings, [])


class DiscardedTask(unittest.TestCase):
    def test_bare_statement_call_is_flagged(self):
        findings = lint_snippet(
            "sim::Task worker(int rank);\n"
            "void f() { worker(3); }\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("discarded", findings[0])
        self.assertIn("worker", findings[0])

    def test_awaited_call_is_fine(self):
        findings = lint_snippet(
            "sim::Task worker(int rank);\n"
            "sim::Task f() { co_await worker(3); }\n")
        self.assertEqual(findings, [])

    def test_stored_call_is_fine(self):
        findings = lint_snippet(
            "sim::Task worker(int rank);\n"
            "void f() { auto t = worker(3); rt.spawn(std::move(t)); }\n")
        self.assertEqual(findings, [])

    def test_call_as_argument_is_fine(self):
        findings = lint_snippet(
            "sim::Task worker(int rank);\n"
            "void f() { rt.spawn(worker(3)); }\n")
        self.assertEqual(findings, [])


class StreamInCoroutine(unittest.TestCase):
    def test_stream_in_task_function_is_flagged(self):
        findings = lint_snippet(
            "sim::Task run(mp::Comm& comm) {\n"
            "  std::ostringstream os;\n"
            "  os << comm.rank();\n"
            "  co_await comm.send(0, data);\n"
            "}\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("stream-in-coroutine", findings[0])
        self.assertIn("'os'", findings[0])
        self.assertIn(":2:", findings[0])

    def test_stream_in_nested_block_of_awaiting_body_is_flagged(self):
        findings = lint_snippet(
            "Job step(Queue& q) {\n"
            "  if (q.empty()) {\n"
            "    std::stringstream ss;\n"
            "    log(ss.str());\n"
            "  }\n"
            "  co_await q.pop();\n"
            "}\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("std::stringstream 'ss'", findings[0])

    def test_stream_in_coroutine_lambda_is_flagged(self):
        findings = lint_snippet(
            "auto make = []() -> sim::Task {\n"
            "  std::istringstream in(\"1 2\");\n"
            "  co_return;\n"
            "};\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("std::istringstream 'in'", findings[0])

    def test_stream_in_plain_function_is_fine(self):
        findings = lint_snippet(
            "std::string describe(int rank) {\n"
            "  std::ostringstream os;\n"
            "  os << \"rank \" << rank;\n"
            "  return os.str();\n"
            "}\n"
            "sim::Task run(mp::Comm& comm) {\n"
            "  log(describe(comm.rank()));\n"
            "  co_await comm.send(0, data);\n"
            "}\n")
        self.assertEqual(findings, [])

    def test_stream_beside_a_coroutine_lambda_is_fine(self):
        # The co_return belongs to the lambda, not to f's body.
        findings = lint_snippet(
            "void f(Runtime& rt) {\n"
            "  std::ostringstream os;\n"
            "  rt.spawn(0, []() -> sim::Task { co_return; }());\n"
            "}\n")
        self.assertEqual(findings, [])

    def test_stream_parameter_and_control_blocks_are_fine(self):
        findings = lint_snippet(
            "sim::Task run(std::ostringstream& os) { co_await x; }\n"
            "void g() { for (int i = 0; i < 2; ++i) {\n"
            "  std::ostringstream os;\n"
            "} }\n")
        self.assertEqual(findings, [])

    def test_nolint_suppresses(self):
        findings = lint_snippet(
            "sim::Task run() {\n"
            "  std::ostringstream os;  // NOLINT: measured, frame is rare\n"
            "  co_await x;\n"
            "}\n")
        self.assertEqual(findings, [])


class MainEntry(unittest.TestCase):
    def test_clean_tree_exits_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "a.cpp").write_text(FlagStaticAsserts.COVERED)
            self.assertEqual(rules.main(["spb_lint", tmp]), 0)

    def test_findings_exit_one(self):
        with tempfile.TemporaryDirectory() as tmp:
            sim = Path(tmp) / "src" / "sim"
            sim.mkdir(parents=True)
            (sim / "a.cpp").write_text(
                FlagStaticAsserts.COVERED + "int f() { return rand(); }\n")
            self.assertEqual(rules.main(["spb_lint", tmp]), 1)

    def test_awaited_task_tree_exits_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "a.cpp").write_text(
                FlagStaticAsserts.COVERED + "sim::Task worker();\n"
                "sim::Task f() { co_await worker(); }\n")
            self.assertEqual(rules.main(["spb_lint", tmp]), 0)

    def test_discarded_task_exits_one(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "a.cpp").write_text(
                FlagStaticAsserts.COVERED + "sim::Task worker();\n"
                "void f() { worker(); }\n")
            self.assertEqual(rules.main(["spb_lint", tmp]), 1)

    def test_stream_in_coroutine_exits_one(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "a.cpp").write_text(
                FlagStaticAsserts.COVERED + "sim::Task f() {\n"
                "  std::ostringstream os;\n  co_await g();\n}\n")
            self.assertEqual(rules.main(["spb_lint", tmp]), 1)

    def test_no_arguments_is_a_usage_error(self):
        self.assertEqual(rules.main(["spb_lint"]), 2)


if __name__ == "__main__":
    unittest.main()
