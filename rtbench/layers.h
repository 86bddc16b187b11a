// Isolated single-thread rates of the layers on the real path, measured on
// the workload's own ring items: codec, data, topo/affinity, msg,
// concurrency and the core session journal.
#pragma once

#include <map>
#include <string>

#include "ring.h"

namespace rtbench {

/// Metric name -> value, e.g. "codec.compress_mbps". Each layer runs for
/// about `budget_s` (at least one operation). MB = 1e6 bytes.
std::map<std::string, double> measure_layers(const Workload& w, const Ring& ring,
                                             double budget_s);

}  // namespace rtbench
