#include "stop/run.h"

#include <algorithm>

#include "common/check.h"
#include "stop/verify.h"

namespace spb::stop {

RunResult run(const Algorithm& algorithm, const Problem& problem,
              RunOptions options) {
  problem.validate();
  const Frame frame = Frame::whole(problem);
  const ProgramFactory factory = algorithm.prepare(frame);

  mp::Runtime rt = problem.machine.make_runtime(algorithm.mpi_flavored());
  SPB_CHECK(rt.size() == problem.p());
  if (options.trace) rt.enable_trace();
  if (options.record_schedule) rt.enable_schedule_recording();
  RunResult result;
  if (options.link_stats) {
    result.link_usage =
        net::LinkUsageProbe(problem.machine.topology->link_space());
    rt.set_link_probe(&result.link_usage);
  }
  if (options.faults.any()) {
    rt.set_fault_plan(std::make_shared<const fault::FaultPlan>(
        options.faults, options.fault_seed,
        problem.machine.topology->link_space(), problem.p()));
  }

  result.final_payloads.assign(static_cast<std::size_t>(problem.p()),
                               mp::Payload{});
  for (std::size_t i = 0; i < problem.sources.size(); ++i) {
    const Rank s = problem.sources[i];
    result.final_payloads[static_cast<std::size_t>(s)] =
        mp::Payload::original(s, problem.bytes_of_source(i));
  }

  for (Rank r = 0; r < problem.p(); ++r)
    rt.spawn(r, factory(rt.comm(r),
                        result.final_payloads[static_cast<std::size_t>(r)]));

  result.outcome = rt.run();
  result.time_us = result.outcome.makespan_us;
  if (options.trace) result.trace = rt.trace();
  if (options.record_schedule) result.schedule = rt.take_schedule();

  if (options.verify) {
    const VerifyResult v = verify_broadcast(problem, result.final_payloads);
    SPB_CHECK_MSG(v.ok, "broadcast verification failed for "
                            << algorithm.name() << " on "
                            << problem.machine.name << ": " << v.error);
  }
  return result;
}

}  // namespace spb::stop
