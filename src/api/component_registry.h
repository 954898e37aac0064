#ifndef CCD_API_COMPONENT_REGISTRY_H_
#define CCD_API_COMPONENT_REGISTRY_H_

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/param_map.h"
#include "classifiers/classifier.h"
#include "detectors/detector.h"
#include "stream/instance.h"

namespace ccd {
namespace api {

/// Capability flags advertised by a registered component, so callers can
/// select components by what they can do instead of hard-coding names
/// (e.g. "every detector that explains local drift").
enum ComponentCaps : unsigned {
  kNoCaps = 0,
  /// drifted_classes() names the classes implicated in a drift signal —
  /// the paper's "explainable / local drift" distinction.
  kExplainsLocalDrift = 1u << 0,
  /// The component learns a model of the data distribution itself
  /// (RBM-IM), not just a statistic of the classifier's errors.
  kTrainable = 1u << 1,
  /// The factory reads the stream schema (class count / feature count) to
  /// size internal state. Components without this flag ignore the schema.
  kNeedsSchema = 1u << 2,
};

/// Registry card of one component: its lookup name, a one-line
/// human-readable description, and capability flags.
struct ComponentInfo {
  std::string name;
  std::string description;
  unsigned caps = kNoCaps;

  bool has(ComponentCaps c) const { return (caps & c) != 0; }
};

/// String-keyed factory registry for one component interface (detectors or
/// classifiers). Entries keep registration order, lookups are by exact
/// name, and every failure mode produces an ApiError that lists the valid
/// alternatives — never a silent nullptr.
template <typename Interface>
class Registry {
 public:
  /// Factories take the stream schema, a seed, and the `key=value`
  /// overrides; they must consume every override they understand (the
  /// registry rejects leftovers after the factory returns).
  using Factory = std::function<std::unique_ptr<Interface>(
      const StreamSchema& schema, uint64_t seed, const ParamMap& params)>;

  /// Adds a component; duplicate names throw (two components silently
  /// shadowing each other is exactly the bug class this API removes).
  void Register(ComponentInfo info, Factory factory) {
    if (FindEntry(info.name) != nullptr) {
      throw ApiError("duplicate " + kind_ + " registration '" + info.name +
                     "'");
    }
    entries_.push_back(Entry{std::move(info), std::move(factory)});
  }

  /// Builds `name` or throws an ApiError listing every registered name.
  /// Unused parameter keys are rejected with the component named, and so
  /// are values the component's constructor refuses
  /// (std::invalid_argument, e.g. RBM-IM's cd_steps=0).
  std::unique_ptr<Interface> Create(const std::string& name,
                                    const StreamSchema& schema, uint64_t seed,
                                    const ParamMap& params = {}) const {
    const Entry* e = FindEntry(name);
    if (e == nullptr) ThrowUnknown(name);
    // Validate against per-call consumption state: a caller may reuse one
    // ParamMap across several Create() calls, and keys consumed by an
    // earlier factory must not vouch for this one.
    ParamMap fresh = params;
    fresh.ResetUsage();
    std::unique_ptr<Interface> built;
    try {
      built = e->factory(schema, seed, fresh);
    } catch (const std::invalid_argument& err) {
      throw ApiError(kind_ + " '" + name + "': " + err.what());
    }
    fresh.ThrowIfUnused(kind_ + " '" + name + "'");
    return built;
  }

  /// Validates that `name` is registered — same ApiError as Create() when
  /// unknown. Lets CLI front-ends reject a typo'd name before starting a
  /// long sweep instead of aborting mid-run.
  void Require(const std::string& name) const {
    if (FindEntry(name) == nullptr) ThrowUnknown(name);
  }

  /// Registry card of `name`, or nullptr when unknown.
  const ComponentInfo* Find(const std::string& name) const {
    const Entry* e = FindEntry(name);
    return e == nullptr ? nullptr : &e->info;
  }

  /// All cards, in registration order.
  std::vector<ComponentInfo> List() const {
    std::vector<ComponentInfo> out;
    for (const Entry& e : entries_) out.push_back(e.info);
    return out;
  }

  /// All names, in registration order.
  std::vector<std::string> Names() const {
    std::vector<std::string> out;
    for (const Entry& e : entries_) out.push_back(e.info.name);
    return out;
  }

  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

 private:
  struct Entry {
    ComponentInfo info;
    Factory factory;
  };

  const Entry* FindEntry(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.info.name == name) return &e;
    }
    return nullptr;
  }

  [[noreturn]] void ThrowUnknown(const std::string& name) const {
    std::string msg =
        "unknown " + kind_ + " '" + name + "'; registered " + kind_ + "s:";
    for (const Entry& entry : entries_) msg += " " + entry.info.name;
    throw ApiError(msg);
  }

  std::string kind_;
  std::vector<Entry> entries_;
};

namespace detail {

/// Raw registry singletons: registration targets for the self-registration
/// macros below. Use the public Detectors()/Classifiers() accessors for
/// lookups — they guarantee the built-in components are linked in.
Registry<DriftDetector>& DetectorsRaw();
Registry<OnlineClassifier>& ClassifiersRaw();

/// No-op anchor defined in builtin_components.cc. Calling it forces the
/// linker to keep that translation unit (and with it the file-scope
/// registrars) even when the library is consumed as a static archive.
void EnsureBuiltinComponentsLinked();

}  // namespace detail

/// The process-wide detector registry, built-ins guaranteed present.
Registry<DriftDetector>& Detectors();

/// The process-wide classifier registry, built-ins guaranteed present.
Registry<OnlineClassifier>& Classifiers();

/// Convenience one-shot builders over the two registries.
std::unique_ptr<DriftDetector> MakeDetector(const std::string& name,
                                            const StreamSchema& schema,
                                            uint64_t seed,
                                            const ParamMap& params = {});
std::unique_ptr<OnlineClassifier> MakeClassifier(const std::string& name,
                                                 const StreamSchema& schema,
                                                 uint64_t seed = 0,
                                                 const ParamMap& params = {});

#define CCD_API_CONCAT_INNER(a, b) a##b
#define CCD_API_CONCAT(a, b) CCD_API_CONCAT_INNER(a, b)

/// Self-registration at static-initialization time. Use at namespace scope
/// in a .cc file:
///
///   CCD_REGISTER_DETECTOR("DDM", "Drift Detection Method", kNoCaps,
///       [](const StreamSchema&, uint64_t, const ParamMap& p) { ... });
///
/// Note for static-library consumers: the linker only runs registrars of
/// object files it keeps, so a component registered outside this library
/// must live in a translation unit the binary already references.
#define CCD_REGISTER_DETECTOR(name, description, caps, ...)             \
  static const bool CCD_API_CONCAT(ccd_detector_registrar_, __LINE__) = \
      (::ccd::api::detail::DetectorsRaw().Register(                     \
           ::ccd::api::ComponentInfo{name, description, caps},          \
           __VA_ARGS__),                                                \
       true)

#define CCD_REGISTER_CLASSIFIER(name, description, caps, ...)             \
  static const bool CCD_API_CONCAT(ccd_classifier_registrar_, __LINE__) = \
      (::ccd::api::detail::ClassifiersRaw().Register(                     \
           ::ccd::api::ComponentInfo{name, description, caps},            \
           __VA_ARGS__),                                                  \
       true)

}  // namespace api
}  // namespace ccd

#endif  // CCD_API_COMPONENT_REGISTRY_H_
