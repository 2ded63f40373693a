// perfbench: the repository's benchmark program. One invocation runs one
// workload for one seed, untraced (end-to-end metrics) or traced (the
// per-layer ladder), and ends its output with one JSON line. Exit status 1
// means an answer disagreed with the oracle or a ladder check failed; 2
// means the invocation itself was wrong.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <cold_crack|converged_serving|mixed_dml|"
               "parallel_mixed> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.out_dir = ".bench_build/perfbench-out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--out") {
        args.out_dir = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (args.seconds < 1 || args.seconds > 600) return Usage("--seconds must be in [1, 600]");

  perfbench::Report report;
  report.Note(perfbench::EnvironmentLine(args.workload, args.seed, args.seconds, args.trace));
  try {
    if (args.trace) {
      std::filesystem::create_directories(args.out_dir);
      perfbench::RunLadder(args, report);
    } else {
      perfbench::RunWorkload(args, report);
    }
  } catch (const std::invalid_argument& e) {
    return Usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.Finish();
  return report.correct() ? 0 : 1;
}
