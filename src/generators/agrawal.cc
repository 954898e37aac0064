#include "generators/agrawal.h"

#include <algorithm>
#include <cmath>

namespace ccd {

AgrawalConcept::AgrawalConcept(const Options& options, uint64_t seed)
    : schema_(std::max(options.num_features, kBaseAttributes),
              options.num_classes, "agrawal"),
      opt_(options) {
  opt_.num_features = schema_.num_features;
  opt_.function_id =
      ((opt_.function_id % kNumFunctions) + kNumFunctions) % kNumFunctions;
  ComputeThresholds(seed ^ 0xc2b2ae3d27d4eb4fULL);
}

AgrawalConcept::Raw AgrawalConcept::DrawRaw(Rng* rng) {
  Raw r;
  r.salary = rng->Uniform(20000.0, 150000.0);
  r.commission = r.salary >= 75000.0 ? 0.0 : rng->Uniform(10000.0, 75000.0);
  r.age = static_cast<double>(rng->UniformInt(20, 80));
  r.elevel = static_cast<double>(rng->UniformInt(0, 4));
  r.car = static_cast<double>(rng->UniformInt(1, 20));
  r.zipcode = static_cast<double>(rng->UniformInt(0, 8));
  r.hvalue = (9.0 - r.zipcode) * 100000.0 * rng->Uniform(0.5, 1.5);
  r.hyears = static_cast<double>(rng->UniformInt(1, 30));
  r.loan = rng->Uniform(0.0, 500000.0);
  return r;
}

double AgrawalConcept::Score(int id, const Raw& r) {
  // Continuous analogues of the ten classic Agrawal predicate functions;
  // each keeps the original's driving attributes and piecewise structure.
  switch (id) {
    case 0:  // Classic F1: age bands.
      return r.age;
    case 1:  // F2: salary within age bands.
      if (r.age < 40.0) return r.salary;
      if (r.age < 60.0) return 0.5 * r.salary + 50000.0;
      return 0.25 * r.salary + 100000.0;
    case 2:  // F3: education within age bands.
      if (r.age < 40.0) return r.elevel * 40000.0 + 0.2 * r.salary;
      if (r.age < 60.0) return (4.0 - r.elevel) * 40000.0 + 0.2 * r.salary;
      return r.elevel * 20000.0 + 0.4 * r.salary;
    case 3:  // F4: salary/education interplay.
      return r.elevel < 2.0 ? r.salary + r.commission
                            : r.salary - 25000.0 * r.elevel;
    case 4:  // F5: salary + loan within age bands.
      if (r.age < 40.0) return r.salary + 0.25 * r.loan;
      if (r.age < 60.0) return 0.5 * (r.salary + 0.25 * r.loan) + 37500.0;
      return 0.3 * r.salary + 0.1 * r.loan + 80000.0;
    case 5:  // F6: total income within age bands.
      if (r.age < 40.0) return r.salary + r.commission;
      if (r.age < 60.0) return 0.7 * (r.salary + r.commission) + 30000.0;
      return 0.4 * (r.salary + r.commission) + 70000.0;
    case 6:  // F7: disposable income, 2x(salary+commission) - loan/5.
      return 2.0 * (r.salary + r.commission) - r.loan / 5.0;
    case 7:  // F8: disposable minus education cost.
      return 2.0 * (r.salary + r.commission) - 5000.0 * r.elevel - 0.2 * r.loan;
    case 8:  // F9: adds house equity.
      return 2.0 * (r.salary + r.commission) - 5000.0 * r.elevel +
             0.2 * r.hvalue - 0.4 * r.loan;
    case 9:  // F10: house equity based on years owned.
    default:
      return 0.1 * r.hvalue * (r.hyears - 10.0) + 0.5 * r.salary - 0.2 * r.loan;
  }
}

void AgrawalConcept::ComputeThresholds(uint64_t probe_seed) {
  Rng rng(probe_seed);
  std::vector<double> scores(static_cast<size_t>(opt_.probe_samples));
  for (double& s : scores) {
    s = Score(opt_.function_id, DrawRaw(&rng));
  }
  std::sort(scores.begin(), scores.end());
  thresholds_.clear();
  for (int k = 1; k < opt_.num_classes; ++k) {
    size_t idx = static_cast<size_t>(
        static_cast<double>(k) / opt_.num_classes * scores.size());
    if (idx >= scores.size()) idx = scores.size() - 1;
    thresholds_.push_back(scores[idx]);
  }
}

int AgrawalConcept::Classify(double score) const {
  int k = 0;
  while (k < static_cast<int>(thresholds_.size()) &&
         score >= thresholds_[static_cast<size_t>(k)]) {
    ++k;
  }
  return k;
}

int AgrawalConcept::Sample(Rng* rng, std::vector<double>* row) const {
  Raw r = DrawRaw(rng);
  int label = Classify(Score(opt_.function_id, r));

  row->resize(static_cast<size_t>(opt_.num_features));
  std::vector<double>& x = *row;
  // Min-max scaled base attributes.
  x[0] = (r.salary - 20000.0) / 130000.0;
  x[1] = r.commission / 75000.0;
  x[2] = (r.age - 20.0) / 60.0;
  x[3] = r.elevel / 4.0;
  x[4] = (r.car - 1.0) / 19.0;
  x[5] = r.zipcode / 8.0;
  x[6] = r.hvalue / (9.0 * 150000.0);
  x[7] = (r.hyears - 1.0) / 29.0;
  x[8] = r.loan / 500000.0;
  for (size_t i = kBaseAttributes; i < x.size(); ++i) x[i] = rng->NextDouble();

  if (opt_.attribute_noise > 0.0) {
    for (size_t i = 0; i < static_cast<size_t>(kBaseAttributes); ++i) {
      x[i] = std::clamp(x[i] + rng->Gaussian(0.0, opt_.attribute_noise), 0.0,
                        1.0);
    }
  }
  return label;
}

}  // namespace ccd
