/**
 * @file
 * The benchmark's workloads (see ../README.md for what each one
 * stresses). Each runs one measured window of Args::seconds and
 * fills @p report; @p budgets receives the thread budgets for the
 * host fingerprint.
 */

#ifndef COBENCH_WORKLOADS_H
#define COBENCH_WORKLOADS_H

#include <string>

#include "common.h"

namespace cobench {

/** GA co-exploration of RandWire-A (threads 1). */
void runExploreIrregular(const Args &args, Report *report,
                         std::string *budgets);

/** Deterministic ga/sa/ts-random/ts-grid portfolio race on ResNet50. */
void runRaceResnet50(const Args &args, Report *report, std::string *budgets);

/** Closed-loop HTTP clients against an in-process JobManager. */
void runServeMix(const Args &args, Report *report, std::string *budgets);

} // namespace cobench

#endif // COBENCH_WORKLOADS_H
