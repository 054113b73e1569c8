"""spb_lint — determinism lint for the S-to-P broadcasting codebase.

Source-level invariants that keep simulated runs bit-reproducible, the
road to intra-run parallelism safe and coroutines alive (see DESIGN.md
§11).  Nine rules:

U1 unordered-iteration   Range-for over a std::unordered_map/unordered_set
                         variable.  Iteration order is unspecified and
                         varies across libstdc++ versions and ASLR seeds;
                         anything it feeds (output, hashes, schedules)
                         stops being deterministic.  Iterate a sorted
                         container, or sort the keys first.
U2 banned-randomness     rand()/srand()/time()/std::random_device inside
                         src/sim, src/mp or src/plan.  The simulator, the
                         message-passing runtime and the planner must
                         derive every choice from the seeded common/rng.h
                         stream, or replays and the plan cache break.
U3 guard-across-suspend  A std::lock_guard/unique_lock/scoped_lock whose
                         scope contains a later co_await/co_yield.  The
                         coroutine suspends with the mutex held; whichever
                         thread resumes the frame unlocks a mutex it never
                         locked (UB) — and every other thread deadlocks
                         first.  Release the guard before suspending.
U4 flag-static-asserts   Every zero-cost feature flag (RunOptions{}.trace,
                         .record_schedule, .link_stats, .faults) must be
                         covered by a static_assert proving it defaults to
                         off, so a stray default never taxes the hot path.
U5 mutable-global-state  Mutable static / namespace-scope state in src/sim,
                         src/net or src/mp.  The sharded engine drains
                         those hot paths on several worker threads, so
                         shared mutable state is a data race and a
                         determinism leak.  Make it const, std::atomic,
                         per-shard, or annotate with
                         NOLINT(spb-mutable-global): <rationale>.
U6 registry-catalogue    Every machine-registry entry
                         (entries_.push_back({...}) in
                         src/machine/registry.cpp) must fill .pattern,
                         .description, .example and .prefix with non-empty
                         string literals — `--machine list`, the usage
                         grammar and the unknown-spec error are generated
                         from them.
U7 capturing-coroutine-  A capturing lambda whose body uses co_await /
   lambda                co_return / co_yield.  The captures live in the
                         closure object, not the coroutine frame, and
                         program factories build sim::Task values from
                         temporary lambdas, so every capture dangles after
                         the first suspension.  Call a free coroutine
                         function from a non-coroutine lambda instead.
U8 discarded-task        A call of a function declared as returning
                         sim::Task used as a bare statement.  It creates a
                         suspended coroutine and destroys it at the
                         semicolon, so the task silently never runs;
                         co_await it, spawn() it on a Runtime, or store it.
U9 stream-in-coroutine   A std::ostringstream / istringstream /
                         stringstream declared in a coroutine body (one
                         declared to return sim::Task, or one using
                         co_await / co_yield / co_return itself).  Every
                         local of a coroutine lives in its heap frame for
                         the coroutine's whole life, so each stream (376
                         bytes) bloats every rank program's frame; format
                         in a plain helper function instead.

Suppress a finding by putting NOLINT (with a rationale) on the line.

Usage: python3 tools/spb_lint DIR [DIR ...]
Exits 1 when any finding is reported, 2 on usage error.
"""

from .rules import main  # noqa: F401
