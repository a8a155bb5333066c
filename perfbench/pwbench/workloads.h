// The three workloads. Each runs its setup several times, then issues
// requests for config.seconds, checks every answer against its oracle, and
// returns the raw samples.

#ifndef PWBENCH_WORKLOADS_H_
#define PWBENCH_WORKLOADS_H_

#include "pwbench/common.h"

namespace pwbench {

/// setup_s samples per run at least: serve_snapshot spreads at least this
/// many over its timed phase, and the epoch workloads, which take one per
/// epoch, run at least this many epochs. setup_s is their median.
inline constexpr int kSetupRepetitions = 11;

/// Cold setups of the same input per setup_s sample, each on a fresh thread;
/// the sample is their mean. The epoch workloads run them on as many
/// distinct CPUs: on a shared host the CPUs slow down one by one, and a
/// median over samples that each sit on one CPU jumps whenever the share of
/// slow CPUs crosses one half.
inline constexpr int kSetupBuilds = 4;

/// Concurrent point reads (2 closed-loop reader threads) while one writer
/// publishes versions at a fixed rate (open loop).
WorkloadResult RunServeSnapshot(const RunConfig& config);

/// Requests per view_maintenance epoch: each epoch builds a fresh view on a
/// fresh graph, so a run averages over many graphs and its figures do not
/// depend on how far into one update trajectory it got.
inline constexpr uint64_t kViewEpochOps = 50;

/// Demand queries beside incremental inserts and deletes on a maintained
/// transitive-closure view over a conditioned DAG, in epochs.
WorkloadResult RunViewMaintenance(const RunConfig& config);

/// The paper's hardness reductions as single requests, one fresh instance
/// each.
WorkloadResult RunDecideHard(const RunConfig& config);

}  // namespace pwbench

#endif  // PWBENCH_WORKLOADS_H_
