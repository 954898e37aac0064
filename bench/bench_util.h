#ifndef CCD_BENCH_BENCH_UTIL_H_
#define CCD_BENCH_BENCH_UTIL_H_

// Shared helpers of the benchmark binaries: CSV flag splitting, eager
// validation of sweep filters, so a typo'd --detectors / --streams value
// aborts with the valid names listed before any evaluation work starts
// (a full-scale sweep is hours; failing on its last cell is not an
// acceptable way to report a typo), and the exit status of the --csv /
// --json output files.

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.h"

namespace ccd {
namespace bench {

inline std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Validates every detector name against the registry; throws ApiError
/// listing the registered detectors on the first unknown name.
inline void RequireDetectors(const std::vector<std::string>& names) {
  for (const std::string& name : names) api::Detectors().Require(name);
}

/// Validates every stream name against the registry — restricted to the
/// artificial benchmarks when `artificial_only` (fig8/fig9 sweep only
/// those, so a real-world name would silently match nothing).
inline void RequireStreams(const std::vector<std::string>& names,
                           bool artificial_only = false) {
  const std::vector<StreamSpec> specs =
      artificial_only ? ArtificialStreamSpecs() : AllStreamSpecs();
  for (const std::string& name : names) {
    bool known = false;
    for (const StreamSpec& s : specs) known = known || s.name == name;
    if (!known) {
      std::string msg = std::string("unknown ") +
                        (artificial_only ? "artificial " : "") + "stream '" +
                        name + "'; this bench sweeps:";
      for (const StreamSpec& s : specs) msg += " " + s.name;
      throw api::ApiError(msg);
    }
  }
}

/// Installs the benches' shared progress reporter on a suite: one
/// "done <stream>" stderr line once every cell belonging to that stream
/// has finished. `stream_of_entry` maps each stream-axis entry index to
/// its parent stream name (several entries may share one stream, e.g. a
/// per-stream option sweep); `cells_per_entry` is how many cells each
/// entry expands to (detector-axis size × repeats).
inline void InstallStreamProgress(api::Suite& suite,
                                  std::vector<std::string> stream_of_entry,
                                  size_t cells_per_entry) {
  auto names = std::make_shared<std::vector<std::string>>(
      std::move(stream_of_entry));
  auto remaining = std::make_shared<std::map<std::string, size_t>>();
  for (const std::string& s : *names) (*remaining)[s] += cells_per_entry;
  suite.OnCellDone([names, remaining](const api::SuiteCell& cell,
                                      const PrequentialResult&) {
    const std::string& s = (*names)[cell.stream_index];
    if (--(*remaining)[s] == 0) {
      std::fprintf(stderr, "done %s\n", s.c_str());
    }
  });
}

/// Reports one written --csv / --json file: "wrote <path>" on stdout when
/// `ok`, else an stderr error. Returns the bench's exit status for it (0 or
/// 1), so a run whose requested output file is missing never exits 0.
inline int ReportWrite(bool ok, const std::string& path) {
  if (!ok) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace bench
}  // namespace ccd

#endif  // CCD_BENCH_BENCH_UTIL_H_
