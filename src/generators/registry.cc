#include "generators/registry.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "generators/agrawal.h"
#include "generators/hyperplane.h"
#include "generators/random_tree.h"
#include "generators/rbf.h"

namespace ccd {
namespace {

StreamSpec Artificial(const std::string& name, uint64_t n, int d, int k,
                      double ir, DriftType type) {
  StreamSpec s;
  s.name = name;
  s.full_length = n;
  s.num_features = d;
  s.num_classes = k;
  s.imbalance_ratio = ir;
  s.drift_type = type;
  s.drift_events = 3;
  s.real_world = false;
  return s;
}

StreamSpec RealWorld(const std::string& name, uint64_t n, int d, int k,
                     double ir, bool known_drift) {
  StreamSpec s;
  s.name = name;
  s.full_length = n;
  s.num_features = d;
  s.num_classes = k;
  s.imbalance_ratio = ir;
  // Real streams have no labelled drift type; the substitutes use gradual
  // transitions (the least structured choice), more of them when the
  // paper marks the stream as drifting.
  s.drift_type = DriftType::kGradual;
  s.drift_events = known_drift ? 3 : 1;
  s.real_world = true;
  return s;
}

std::vector<StreamSpec> MakeAllSpecs() {
  std::vector<StreamSpec> v;
  // Table I, top block: real-world streams (simulated substitutes).
  v.push_back(RealWorld("Activity-Raw", 1048570, 3, 6, 128.93, true));
  v.push_back(RealWorld("Connect4", 67557, 42, 3, 45.81, false));
  v.push_back(RealWorld("Covertype", 581012, 54, 7, 96.14, false));
  v.push_back(RealWorld("Crimes", 878049, 3, 39, 106.72, false));
  v.push_back(RealWorld("DJ30", 138166, 8, 30, 204.66, true));
  v.push_back(RealWorld("EEG", 14980, 14, 2, 29.88, true));
  v.push_back(RealWorld("Electricity", 45312, 8, 2, 17.54, true));
  v.push_back(RealWorld("Gas", 13910, 128, 6, 138.03, true));
  v.push_back(RealWorld("Olympic", 271116, 7, 4, 66.82, false));
  v.push_back(RealWorld("Poker", 829201, 10, 10, 144.00, true));
  v.push_back(RealWorld("IntelSensors", 2219804, 5, 57, 348.26, true));
  v.push_back(RealWorld("Tags", 164860, 4, 11, 194.28, false));
  // Table I, bottom block: artificial streams.
  v.push_back(Artificial("Aggrawal5", 1000000, 20, 5, 50.0,
                         DriftType::kIncremental));
  v.push_back(Artificial("Aggrawal10", 1000000, 40, 10, 80.0,
                         DriftType::kIncremental));
  v.push_back(Artificial("Aggrawal20", 2000000, 80, 20, 100.0,
                         DriftType::kIncremental));
  v.push_back(
      Artificial("Hyperplane5", 1000000, 20, 5, 100.0, DriftType::kGradual));
  v.push_back(
      Artificial("Hyperplane10", 1000000, 40, 10, 200.0, DriftType::kGradual));
  v.push_back(
      Artificial("Hyperplane20", 2000000, 80, 20, 300.0, DriftType::kGradual));
  v.push_back(Artificial("RBF5", 1000000, 20, 5, 100.0, DriftType::kSudden));
  v.push_back(Artificial("RBF10", 1000000, 40, 10, 200.0, DriftType::kSudden));
  v.push_back(Artificial("RBF20", 2000000, 80, 20, 300.0, DriftType::kSudden));
  v.push_back(
      Artificial("RandomTree5", 1000000, 20, 5, 100.0, DriftType::kSudden));
  v.push_back(
      Artificial("RandomTree10", 1000000, 40, 10, 200.0, DriftType::kSudden));
  v.push_back(
      Artificial("RandomTree20", 2000000, 80, 20, 300.0, DriftType::kSudden));
  return v;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::unique_ptr<Concept> MakeConcept(const StreamSpec& spec, int variant,
                                     uint64_t seed) {
  uint64_t concept_seed = seed * 1000003ULL + static_cast<uint64_t>(variant);
  if (StartsWith(spec.name, "Aggrawal")) {
    AgrawalConcept::Options o;
    o.num_features = spec.num_features;
    o.num_classes = spec.num_classes;
    o.function_id = variant;
    return std::make_unique<AgrawalConcept>(o, concept_seed);
  }
  if (StartsWith(spec.name, "Hyperplane")) {
    HyperplaneConcept::Options o;
    o.num_features = spec.num_features;
    o.num_classes = spec.num_classes;
    return std::make_unique<HyperplaneConcept>(o, concept_seed);
  }
  if (StartsWith(spec.name, "RandomTree")) {
    RandomTreeConcept::Options o;
    o.num_features = spec.num_features;
    o.num_classes = spec.num_classes;
    // Deep enough to host 20 distinct classes in leaves.
    o.max_depth = std::max(7, 3 + spec.num_classes / 3);
    return std::make_unique<RandomTreeConcept>(o, concept_seed);
  }
  // RBF* and every real-world substitute: mixture-of-Gaussians concepts.
  RbfConcept::Options o;
  o.num_features = spec.num_features;
  o.num_classes = spec.num_classes;
  o.centroids_per_class = spec.real_world ? 4 : 3;
  return std::make_unique<RbfConcept>(o, concept_seed);
}

}  // namespace

const std::vector<StreamSpec>& AllStreamSpecs() {
  static const std::vector<StreamSpec>* specs =
      new std::vector<StreamSpec>(MakeAllSpecs());
  return *specs;
}

std::vector<StreamSpec> ArtificialStreamSpecs() {
  std::vector<StreamSpec> out;
  for (const StreamSpec& s : AllStreamSpecs()) {
    if (!s.real_world) out.push_back(s);
  }
  return out;
}

const StreamSpec* FindStreamSpec(const std::string& name) {
  for (const StreamSpec& s : AllStreamSpecs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

uint64_t StreamLength(const StreamSpec& spec, const BuildOptions& options) {
  auto refuse = [&spec](const std::string& field, const std::string& why) {
    throw std::invalid_argument("stream '" + spec.name + "': " + field +
                                " " + why);
  };
  if (spec.num_features < 1) refuse("num_features", "must be >= 1");
  if (spec.num_classes < 2) refuse("num_classes", "must be >= 2");
  if (options.ir_override > 0.0) {
    if (!std::isfinite(options.ir_override)) {
      refuse("ir_override", "must be finite");
    }
    if (options.ir_override < 1.0) refuse("ir_override", "must be >= 1");
  } else if (!(std::isfinite(spec.imbalance_ratio) &&
               spec.imbalance_ratio >= 1.0)) {
    refuse("imbalance_ratio", "must be finite and >= 1");
  }
  if (spec.drift_events < 0) refuse("drift_events", "must be >= 0");
  if (!(options.label_noise >= 0.0 && options.label_noise <= 1.0)) {
    refuse("label_noise", "must be in [0, 1]");
  }
  if (!(std::isfinite(options.scale) && options.scale > 0.0)) {
    refuse("scale", "must be finite and > 0");
  }
  const double scaled = static_cast<double>(spec.full_length) * options.scale;
  // 2^64: the first double a uint64_t cannot hold.
  if (!(scaled < 18446744073709551616.0)) {
    refuse("scale", "makes the stream longer than 2^64 instances");
  }
  return std::max<uint64_t>(static_cast<uint64_t>(scaled), 4000);
}

BuiltStream BuildStream(const StreamSpec& spec, const BuildOptions& options) {
  BuiltStream out;
  out.spec = spec;
  out.length = StreamLength(spec, options);

  int n_events =
      options.events_override >= 0 ? options.events_override : spec.drift_events;

  std::vector<std::unique_ptr<Concept>> concepts;
  for (int i = 0; i <= n_events; ++i) {
    concepts.push_back(MakeConcept(spec, i, options.seed));
  }

  uint64_t width = out.length / 10;
  std::vector<DriftEvent> events =
      EvenlySpacedEvents(out.length, n_events, spec.drift_type, width);

  // Experiment 2: restrict drift to the c smallest classes. With the
  // geometric prior ladder and no role switching, class K-1 is the
  // smallest, K-2 the next, etc.
  if (options.local_drift_classes >= 0) {
    std::vector<int> affected;
    int c = std::min(options.local_drift_classes, spec.num_classes);
    for (int i = 0; i < c; ++i) {
      affected.push_back(spec.num_classes - 1 - i);
    }
    for (DriftEvent& e : events) e.affected = affected;
  }

  double ir =
      options.ir_override > 0.0 ? options.ir_override : spec.imbalance_ratio;
  ImbalanceSchedule::Options imb;
  imb.num_classes = spec.num_classes;
  imb.base_ir = ir;
  imb.dynamic = true;  // Paper: artificial IR "increases and decreases".
  imb.ir_low = std::max(1.0, ir / 2.0);
  imb.ir_high = ir;
  imb.ir_period = std::max<uint64_t>(out.length / 2, 2);
  if (options.role_switching) {
    imb.role_switch_period = std::max<uint64_t>(out.length / 4, 2);
    imb.role_switch_width = std::max<uint64_t>(out.length / 100, 2);
  }

  DriftingClassStream::Options stream_opt;
  stream_opt.label_noise = options.label_noise;

  out.stream = std::make_unique<DriftingClassStream>(
      std::move(concepts), std::move(events), ImbalanceSchedule(imb),
      options.seed ^ 0x5bd1e995u, stream_opt);
  return out;
}

}  // namespace ccd
