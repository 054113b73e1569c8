#include "analyze/record.h"

#include "common/check.h"
#include "stop/frame.h"

namespace spb::analyze {

RecordedRun record_run(const stop::Algorithm& algorithm,
                       const stop::Problem& problem,
                       fault::FaultPlanPtr fault_plan) {
  problem.validate();
  const stop::Frame frame = stop::Frame::whole(problem);
  const stop::ProgramFactory factory = algorithm.prepare(frame);

  mp::Runtime rt = problem.machine.make_runtime(algorithm.mpi_flavored());
  SPB_CHECK(rt.size() == problem.p());
  rt.enable_schedule_recording();
  if (fault_plan != nullptr) rt.set_fault_plan(std::move(fault_plan));

  RecordedRun out;
  out.final_payloads.assign(static_cast<std::size_t>(problem.p()),
                            mp::Payload{});
  for (std::size_t i = 0; i < problem.sources.size(); ++i) {
    const Rank s = problem.sources[i];
    out.final_payloads[static_cast<std::size_t>(s)] =
        mp::Payload::original(s, problem.bytes_of_source(i));
  }
  for (Rank r = 0; r < problem.p(); ++r)
    rt.spawn(r, factory(rt.comm(r),
                        out.final_payloads[static_cast<std::size_t>(r)]));

  try {
    rt.run();
    out.completed = true;
  } catch (const mp::DeadlockError& e) {
    out.failure = e.what();
  } catch (const CheckError& e) {
    out.failure = e.what();
  }
  out.schedule = rt.take_schedule();
  return out;
}

}  // namespace spb::analyze
