#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Prefix under which the traced twin of every registered component is
/// registered ("traced:cs-ptree", "traced:RBM-IM", ...).
inline std::string Traced(const std::string& name) { return "traced:" + name; }

/// Registers, through the public api::Classifiers()/api::Detectors()
/// registries, a traced twin of every component registered so far. A twin
/// builds the real component through the registry and forwards every
/// virtual function to it, wrapping the calls that do work in trace
/// spans; its name() is the real component's, so results are unchanged.
/// Idempotent.
void RegisterTracedComponents();

/// One prequential outcome as a detector sees it: the true label, the
/// classifier's prediction and its scores.
struct Triple {
  int truth = 0;
  int predicted = 0;
  std::vector<double> scores;
};

/// While a buffer is armed on a thread, traced detectors on that thread
/// append every Observe() outcome to it (up to `limit` entries).
void ArmTripleRecorder(std::vector<Triple>* buffer, size_t limit);
void DisarmTripleRecorder();

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
