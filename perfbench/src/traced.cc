#include "traced.h"

#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "api/component_registry.h"
#include "core/rbm_im.h"
#include "trace.h"

namespace perfbench {
namespace {

using ccd::DetectorState;
using ccd::DriftDetector;
using ccd::Instance;
using ccd::OnlineClassifier;

thread_local std::vector<Triple>* tl_triples = nullptr;
thread_local size_t tl_triple_limit = 0;

class TracedClassifier : public OnlineClassifier {
 public:
  explicit TracedClassifier(std::unique_ptr<OnlineClassifier> inner)
      : inner_(std::move(inner)) {}

  const ccd::StreamSchema& schema() const override { return inner_->schema(); }
  void Train(const Instance& instance) override {
    trace::Scope span(trace::kClsTrain);
    inner_->Train(instance);
  }
  std::vector<double> PredictScores(const Instance& instance) const override {
    trace::Scope span(trace::kClsPredict);
    return inner_->PredictScores(instance);
  }
  void PredictScoresInto(const Instance& instance,
                         std::vector<double>& out) const override {
    trace::Scope span(trace::kClsPredict);
    inner_->PredictScoresInto(instance, out);
  }
  int Predict(const Instance& instance) const override {
    trace::Scope span(trace::kClsPredict);
    return inner_->Predict(instance);
  }
  void Reset() override {
    trace::Scope span(trace::kClsOther);
    inner_->Reset();
  }
  std::unique_ptr<OnlineClassifier> Clone() const override {
    trace::Scope span(trace::kClsOther);
    return std::make_unique<TracedClassifier>(inner_->Clone());
  }
  std::unique_ptr<OnlineClassifier> CloneState() const override {
    trace::Scope span(trace::kClsOther);
    return std::make_unique<TracedClassifier>(inner_->CloneState());
  }
  void SaveState(ccd::io::Writer& writer) const override {
    trace::Scope span(trace::kClsOther);
    inner_->SaveState(writer);
  }
  void LoadState(ccd::io::Reader& reader) override {
    trace::Scope span(trace::kClsOther);
    inner_->LoadState(reader);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<OnlineClassifier> inner_;
};

trace::Kind ObserveKind(const std::string& name) {
  if (name == "WSTD") return trace::kDetWstd;
  if (name == "RDDM") return trace::kDetRddm;
  if (name == "FHDDM") return trace::kDetFhddm;
  if (name == "PerfSim") return trace::kDetPerfSim;
  if (name == "DDM-OCI") return trace::kDetDdmOci;
  return trace::kDetOther;
}

class TracedDetector : public DriftDetector {
 public:
  explicit TracedDetector(std::unique_ptr<DriftDetector> inner)
      : inner_(std::move(inner)),
        rbm_(dynamic_cast<const ccd::RbmIm*>(inner_.get())),
        kind_(rbm_ != nullptr ? trace::kRbmObserve
                              : ObserveKind(inner_->name())) {}

  void Observe(const Instance& instance, int predicted,
               const std::vector<double>& scores) override {
    if (tl_triples != nullptr && tl_triples->size() < tl_triple_limit) {
      tl_triples->push_back(Triple{instance.label, predicted, scores});
    }
    trace::Scope span(kind_);
    if (rbm_ == nullptr) {
      inner_->Observe(instance, predicted, scores);
      return;
    }
    const uint64_t before = rbm_->batches_processed();
    inner_->Observe(instance, predicted, scores);
    if (rbm_->batches_processed() != before) {
      span.set_kind(trace::kRbmBatchClose);
    }
  }
  DetectorState state() const override { return inner_->state(); }
  void Reset() override {
    trace::Scope span(trace::kDetMisc);
    inner_->Reset();
  }
  std::unique_ptr<DriftDetector> CloneState() const override {
    trace::Scope span(trace::kDetMisc);
    return std::make_unique<TracedDetector>(inner_->CloneState());
  }
  void SaveState(ccd::io::Writer& writer) const override {
    trace::Scope span(trace::kDetMisc);
    inner_->SaveState(writer);
  }
  void LoadState(ccd::io::Reader& reader) override {
    trace::Scope span(trace::kDetMisc);
    inner_->LoadState(reader);
  }
  std::string name() const override { return inner_->name(); }
  std::vector<int> drifted_classes() const override {
    return inner_->drifted_classes();
  }

 private:
  std::unique_ptr<DriftDetector> inner_;
  const ccd::RbmIm* rbm_;
  trace::Kind kind_;
};

/// The wrapped component consumes the parameters; mark them used on the
/// outer map so the registry's leftover check does not reject them twice.
void MarkAllUsed(const ccd::api::ParamMap& params) {
  std::istringstream entries(params.ToString());
  std::string entry;
  while (entries >> entry) {
    params.GetString(entry.substr(0, entry.find('=')), "");
  }
}

template <typename Interface, typename Wrapper>
void RegisterTwins(ccd::api::Registry<Interface>& registry) {
  for (const ccd::api::ComponentInfo& info : registry.List()) {
    if (info.name.rfind("traced:", 0) == 0) continue;
    ccd::api::ComponentInfo twin = info;
    twin.name = Traced(info.name);
    const std::string inner = info.name;
    registry.Register(
        twin, [&registry, inner](const ccd::StreamSchema& schema, uint64_t seed,
                                 const ccd::api::ParamMap& params) {
          MarkAllUsed(params);
          return std::unique_ptr<Interface>(std::make_unique<Wrapper>(
              registry.Create(inner, schema, seed, params)));
        });
  }
}

}  // namespace

void RegisterTracedComponents() {
  static std::once_flag once;
  std::call_once(once, [] {
    RegisterTwins<OnlineClassifier, TracedClassifier>(
        ccd::api::Classifiers());
    RegisterTwins<DriftDetector, TracedDetector>(ccd::api::Detectors());
  });
}

void ArmTripleRecorder(std::vector<Triple>* buffer, size_t limit) {
  tl_triples = buffer;
  tl_triple_limit = limit;
}

void DisarmTripleRecorder() {
  tl_triples = nullptr;
  tl_triple_limit = 0;
}

}  // namespace perfbench
