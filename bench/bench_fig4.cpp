// Figure 4 reproduction: directory-tree access footprints of TeslaCrypt
// (depth-first), CTB-Locker (size-ascending), and GPcode (root-down)
// before detection.
//
// The paper renders radial trees with touched directories shaded; this
// bench prints, per sample, the touched directory count, the depth
// profile of touched directories, and an indented tree with '*' marking
// directories where the sample read or wrote a file before CryptoDrop
// stopped it. The three samples' traversal shapes should be visibly
// different (deep pockets vs. scattered-by-size vs. top-down).
#include "bench_common.hpp"

#include <map>

#include "vfs/path.hpp"

using namespace cryptodrop;

namespace {

void print_tree(const vfs::FileSystem& fs, const std::string& root,
                const std::set<std::string>& touched, const std::string& dir,
                int depth, int max_depth) {
  if (depth > max_depth) return;
  const std::string label = dir == root ? "(documents root)"
                                        : std::string(vfs::path_filename(dir));
  std::printf("  %*s%s %s\n", depth * 2, "", touched.contains(dir) ? "*" : "-",
              label.c_str());
  for (const vfs::DirEntry& entry : fs.list(dir)) {
    if (!entry.is_directory) continue;
    print_tree(fs, root, touched, vfs::path_join(dir, entry.name), depth + 1,
               max_depth);
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto scale = benchutil::parse_scale(argc, argv);
  // Figure 4 runs exactly three samples; corpus scale still configurable.
  const harness::Environment env = benchutil::build_environment(scale);

  struct Subject {
    const char* family;
    sim::BehaviorClass behavior;
    const char* paper_shape;
  };
  const Subject subjects[] = {
      {"TeslaCrypt", sim::BehaviorClass::A,
       "depth-first: contiguous deep pocket of the tree"},
      {"CTB-Locker", sim::BehaviorClass::B,
       "size-ascending .txt/.md: scattered across the whole tree"},
      {"GPcode", sim::BehaviorClass::C,
       "root-down: shallow directories first"},
  };

  std::vector<sim::SampleSpec> specs;
  for (const Subject& subject : subjects) {
    sim::SampleSpec spec;
    spec.family = subject.family;
    spec.behavior = subject.behavior;
    spec.profile = sim::family_profile(subject.family, subject.behavior);
    spec.profile.behavior = subject.behavior;
    spec.seed = 404;
    specs.push_back(std::move(spec));
  }
  const auto results =
      harness::run_campaign(env, specs, core::ScoringConfig{}, benchutil::runner_options(scale));
  benchutil::maybe_write_metrics(scale, results);
  benchutil::maybe_write_trace(scale, results);

  std::printf("== Figure 4: directory footprint before detection ==\n");
  for (std::size_t i = 0; i < std::size(subjects); ++i) {
    const Subject& subject = subjects[i];
    const harness::RansomwareRunResult& r = results[i];

    const std::size_t total_dirs = env.base_fs.list_dirs_recursive(env.corpus.root).size() + 1;
    std::printf("\n-- %s (Class %s) --\n", subject.family,
                std::string(sim::behavior_class_name(subject.behavior)).c_str());
    std::printf("paper shape: %s\n", subject.paper_shape);
    std::printf("detected: %s | files lost: %zu | directories touched: %zu of %zu\n",
                r.detected ? "yes" : "NO", r.files_lost,
                r.directories_touched.size(), total_dirs);

    // Depth histogram of touched directories.
    std::map<std::size_t, std::size_t> by_depth;
    const std::size_t root_depth = vfs::path_depth(env.corpus.root);
    for (const std::string& dir : r.directories_touched) {
      ++by_depth[vfs::path_depth(dir) - root_depth];
    }
    std::printf("touched-directory depth profile (0 = documents root):\n");
    for (const auto& [depth, count] : by_depth) {
      std::printf("  depth %zu: %zu %s\n", depth, count,
                  std::string(count, '#').c_str());
    }
    std::printf("tree (first 3 levels, * = touched):\n");
    print_tree(env.base_fs, env.corpus.root, r.directories_touched,
               env.corpus.root, 0, 3);
  }
  return 0;
}
