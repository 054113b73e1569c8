// Runs an algorithm once with schedule recording enabled and hands the
// symbolic schedule to the static checks — including when the run
// deadlocks or a program throws, which is precisely when the schedule is
// most interesting.
#pragma once

#include <string>
#include <vector>

#include "fault/fault.h"
#include "mp/payload.h"
#include "mp/schedule.h"
#include "stop/algorithm.h"
#include "stop/problem.h"

namespace spb::analyze {

struct RecordedRun {
  mp::Schedule schedule;
  /// Final payload of every rank (meaningful only when completed).
  std::vector<mp::Payload> final_payloads;
  /// The simulation drained with every program finished.
  bool completed = false;
  /// Text of the DeadlockError / CheckError, empty when completed.
  std::string failure;
};

/// Records one run.  Never throws for deadlocks or program CheckErrors —
/// those land in `failure` with the partial schedule preserved.  A non-null
/// fault plan (built for the problem's machine) is installed on the runtime;
/// the symbolic schedule still records only the algorithm's logical sends,
/// not the fault-induced retransmissions.
RecordedRun record_run(const stop::Algorithm& algorithm,
                       const stop::Problem& problem,
                       fault::FaultPlanPtr fault_plan = nullptr);

}  // namespace spb::analyze
