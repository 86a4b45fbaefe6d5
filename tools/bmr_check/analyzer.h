// bmr_check — a lightweight static analyzer for the repo's structural
// invariants (docs/GUIDE.md §12).  It is deliberately self-contained
// (standard library only, no libclang) so it builds and runs on the
// GCC-only container in well under a second, early enough to gate the
// rest of `check.sh all`.
//
// The analyzer lexes src/**/*.{h,cc} (comments and string literals
// understood, preprocessor lines handled) and runs graph-level checks
// the grep/awk lint gate could not express:
//
//   lock-order       the acquires-after relation — BMR_ACQUIRED_AFTER
//                    annotations plus MutexLock nesting inside function
//                    bodies resolved against OrderedMutex declarations —
//                    must stay acyclic, transitively, before any test
//                    runs.  Self-acquisition is flagged too.
//   layering         a real include graph: direction violations against
//                    the dependency DAG, includes of headers private to
//                    another directory (faults/internal.h; every net/
//                    header but net/transport.h), include cycles among
//                    project headers, and headers included but never
//                    referenced.
//   status-discard   a call to a Status/StatusOr returner used as a bare
//                    expression statement in a .cc file silently drops
//                    the error ([[nodiscard]] only fires when the
//                    declaration is visible and annotated); `(void)`
//                    casts must carry a same-line reason comment.
//   nodiscard        every Status/StatusOr returner declared in a header
//                    carries [[nodiscard]] — including declarations whose
//                    return type and name sit on different lines, which
//                    the old awk scan missed.
//   metric-registry  every constant in obs/metric_names.h / mr/types.h
//                    is recorded at >=1 site and every recording site
//                    resolves to a registered constant (dead series and
//                    typo'd names both fail).  Registered bmr_* names
//                    must also follow the GUIDE §10 taxonomy —
//                    bmr_<subsystem>_<name>_<unit> with a known
//                    subsystem (arena, codec, job, ...) and unit
//                    (us/bytes/seconds/total).
//
// Suppression: a finding is silenced by an inline annotation on the
// same or the preceding line —
//     // bmr_check:allow(<check>) <non-empty reason>
// The reason is mandatory; an allow() with no justification is itself a
// finding.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace bmr_check {

struct Finding {
  std::string check;    // "lock-order", "layering", ...
  std::string file;     // path as given (repo-relative in CLI use)
  int line = 0;         // 1-based; 0 when the finding is graph-global
  std::string message;
};

struct FileContent {
  std::string path;  // repo-relative, e.g. "src/mr/engine.cc"
  std::string text;
};

struct Options {
  // Empty = run every check.  Otherwise the subset to run, by id.
  std::set<std::string> checks;
};

/// All check ids, in report order.
const std::vector<std::string>& AllCheckIds();

/// Runs the selected checks over an in-memory tree.  Paths decide the
/// role of each file (header vs translation unit, directory layer), so
/// fixtures in tests use the same "src/<dir>/<name>" shape as the repo.
std::vector<Finding> Analyze(const std::vector<FileContent>& files,
                             const Options& options);

/// Loads src/**/*.h and src/**/*.cc under `root` (paths returned
/// relative to it).  Missing tree => empty vector.
std::vector<FileContent> LoadTree(const std::string& root);

/// One "file:line: [check] message" line per finding, sorted.
std::string FormatFindings(const std::vector<Finding>& findings);

}  // namespace bmr_check
