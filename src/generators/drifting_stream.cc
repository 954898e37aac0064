#include "generators/drifting_stream.h"

#include <cmath>

namespace ccd {

DriftingClassStream::DriftingClassStream(
    std::vector<std::unique_ptr<Concept>> concepts,
    std::vector<DriftEvent> events, ImbalanceSchedule imbalance, uint64_t seed,
    Options options)
    : concepts_(std::move(concepts)),
      events_(std::move(events)),
      imbalance_(std::move(imbalance)),
      opt_(options),
      rng_(seed) {
  schema_ = concepts_.empty() ? StreamSchema() : concepts_[0]->schema();
}

DriftingClassStream::Governing DriftingClassStream::Resolve(uint64_t t,
                                                            int label) const {
  Governing g;
  g.old_index = 0;
  g.new_index = 0;
  for (size_t e = 0; e < events_.size(); ++e) {
    const DriftEvent& ev = events_[e];
    if (t < ev.start) break;
    if (!ev.Affects(label)) continue;
    double alpha = ev.Alpha(t);
    if (alpha >= 1.0) {
      g.old_index = static_cast<int>(e) + 1;
      g.new_index = g.old_index;
      g.alpha = 1.0;
      g.event_index = -1;
    } else {
      g.new_index = static_cast<int>(e) + 1;
      g.alpha = alpha;
      g.type = ev.type;
      g.event_index = static_cast<int>(e);
      break;  // Events are non-overlapping; nothing later can be active.
    }
  }
  return g;
}

const Concept* DriftingClassStream::InterpolatedConcept(int event_index,
                                                        double alpha) {
  int quant = static_cast<int>(alpha / opt_.interpolation_step);
  auto key = std::make_pair(event_index, quant);
  auto it = interp_cache_.find(key);
  if (it != interp_cache_.end()) return it->second.get();

  // The `old` concept of the event chain; for interpolation purposes the
  // chain transition e -> e+1 is what matters.
  const Concept& from = *concepts_[static_cast<size_t>(event_index)];
  const Concept& to = *concepts_[static_cast<size_t>(event_index) + 1];
  std::unique_ptr<Concept> interp =
      from.Interpolate(to, static_cast<double>(quant) * opt_.interpolation_step);
  if (!interp) return nullptr;
  const Concept* raw = interp.get();
  // Keep the cache bounded: one event contributes at most 1/step entries.
  interp_cache_[key] = std::move(interp);
  return raw;
}

Instance DriftingClassStream::Next() {
  Instance out;
  NextInto(&out);
  return out;
}

void DriftingClassStream::NextInto(Instance* out) {
  const uint64_t t = pos_++;
  imbalance_.PriorsAt(t, &priors_);
  int label = rng_.Discrete(priors_);

  Governing g = Resolve(t, label);
  std::vector<double>* x = &out->features;
  if (g.alpha >= 1.0 || g.event_index < 0) {
    concepts_[static_cast<size_t>(g.new_index)]->SampleForClass(label, &rng_,
                                                                x);
  } else if (g.type == DriftType::kIncremental) {
    const Concept* interp = InterpolatedConcept(g.event_index, g.alpha);
    if (interp != nullptr) {
      interp->SampleForClass(label, &rng_, x);
    } else {
      // Family cannot interpolate: fall back to the Eq. 3 mixture, whose
      // marginal matches the incremental definition.
      const Concept& c = rng_.Bernoulli(g.alpha)
                             ? *concepts_[static_cast<size_t>(g.new_index)]
                             : *concepts_[static_cast<size_t>(g.old_index)];
      c.SampleForClass(label, &rng_, x);
    }
  } else {
    // Sudden never reaches here (alpha jumps to 1); gradual = Eq. 5.
    const Concept& c = rng_.Bernoulli(g.alpha)
                           ? *concepts_[static_cast<size_t>(g.new_index)]
                           : *concepts_[static_cast<size_t>(g.old_index)];
    c.SampleForClass(label, &rng_, x);
  }

  int emitted_label = label;
  if (opt_.label_noise > 0.0 && rng_.Bernoulli(opt_.label_noise)) {
    emitted_label = rng_.UniformInt(0, schema_.num_classes - 1);
  }
  out->label = emitted_label;
  out->weight = 1.0;
}

bool DriftingClassStream::ClassDriftActiveAt(uint64_t t, int k,
                                             uint64_t slack) const {
  for (const DriftEvent& ev : events_) {
    if (!ev.Affects(k)) continue;
    uint64_t end = ev.start + (ev.width == 0 ? 1 : ev.width) + slack;
    if (t >= ev.start && t < end) return true;
  }
  return false;
}

}  // namespace ccd
