// parade_run: multi-process cluster launcher.
//
//   parade_run -n <nodes> [-t <threads>] [--net clan|fastether|ideal]
//              [--barrier=flat|tree:<k>] [--sockdir <dir>]
//              [--fault-seed N] [--fault-plan SPEC]
//              [--metrics=PATH] [--trace=PATH] <program> [args...]
//
// Forks one OS process per node; each process joins the Unix-domain-socket
// fabric via PARADE_RANK / PARADE_SIZE / PARADE_SOCKDIR. The program must be
// built against the ParADE runtime (ProcessRuntime::from_env or a translated
// program's generated main). Exit status: first non-zero child status, else 0.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/topology.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: parade_run -n <nodes> [-t <threads>] [--net NAME] "
               "[--barrier=flat|tree:<k>] [--sockdir DIR] "
               "[--fault-seed N] [--fault-plan SPEC] "
               "[--metrics=PATH] [--trace=PATH] <program> [args...]\n");
  return 2;
}

/// Strict output-path validation (same contract as parade_omcc's --threshold
/// parsing: a bad value is exit 2 up front, not a warning at teardown). The
/// path must be nonempty and its parent directory must already exist —
/// per-rank suffixing happens inside the runtime, so only the directory is
/// checkable here.
bool valid_out_path(const std::string& path) {
  if (path.empty()) return false;
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return true;  // cwd-relative file
  const std::string dir = slash == 0 ? "/" : path.substr(0, slash);
  struct stat st{};
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace

int main(int argc, char** argv) {
  int nodes = 0;
  int threads = 1;
  std::string net;
  std::string sockdir;
  std::string fault_seed;
  std::string fault_plan;
  std::string metrics_path;
  std::string trace_path;
  std::string barrier_spec;
  bool saw_metrics = false;
  bool saw_trace = false;
  int prog_at = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-n" && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (arg == "-t" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--net" && i + 1 < argc) {
      net = argv[++i];
    } else if (arg == "--sockdir" && i + 1 < argc) {
      sockdir = argv[++i];
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      fault_seed = argv[++i];
    } else if (arg == "--fault-plan" && i + 1 < argc) {
      fault_plan = argv[++i];
    } else if (arg.rfind("--barrier=", 0) == 0) {
      // Strict validation, same contract as the output-path flags: a bad
      // spec is exit 2 up front, before any node process forks.
      barrier_spec = arg.substr(std::strlen("--barrier="));
      if (!parade::parse_barrier_spec(barrier_spec).has_value()) {
        std::fprintf(stderr,
                     "parade_run: bad --barrier spec '%s' "
                     "(want flat or tree:<k>)\n",
                     barrier_spec.c_str());
        return 2;
      }
    } else if (arg.rfind("--metrics=", 0) == 0) {
      if (saw_metrics) {
        std::fprintf(stderr, "parade_run: duplicate --metrics flag\n");
        return 2;
      }
      saw_metrics = true;
      metrics_path = arg.substr(std::strlen("--metrics="));
      if (!valid_out_path(metrics_path)) {
        std::fprintf(stderr, "parade_run: bad --metrics path '%s'\n",
                     metrics_path.c_str());
        return 2;
      }
    } else if (arg.rfind("--trace=", 0) == 0) {
      if (saw_trace) {
        std::fprintf(stderr, "parade_run: duplicate --trace flag\n");
        return 2;
      }
      saw_trace = true;
      trace_path = arg.substr(std::strlen("--trace="));
      if (!valid_out_path(trace_path)) {
        std::fprintf(stderr, "parade_run: bad --trace path '%s'\n",
                     trace_path.c_str());
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      prog_at = i;
      break;
    }
  }
  if (nodes < 1 || nodes > 128 || threads < 1 || prog_at < 0) return usage();

  char dir_template[] = "/tmp/parade-run-XXXXXX";
  if (sockdir.empty()) {
    const char* made = mkdtemp(dir_template);
    if (made == nullptr) {
      std::perror("parade_run: mkdtemp");
      return 1;
    }
    sockdir = made;
  }

  std::vector<pid_t> children;
  children.reserve(static_cast<std::size_t>(nodes));
  for (int rank = 0; rank < nodes; ++rank) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("parade_run: fork");
      return 1;
    }
    if (pid == 0) {
      setenv("PARADE_RANK", std::to_string(rank).c_str(), 1);
      setenv("PARADE_SIZE", std::to_string(nodes).c_str(), 1);
      setenv("PARADE_SOCKDIR", sockdir.c_str(), 1);
      setenv("PARADE_NODES", std::to_string(nodes).c_str(), 1);
      setenv("PARADE_THREADS", std::to_string(threads).c_str(), 1);
      if (!net.empty()) setenv("PARADE_NET", net.c_str(), 1);
      if (!barrier_spec.empty()) setenv("PARADE_BARRIER", barrier_spec.c_str(), 1);
      if (!fault_seed.empty()) setenv("PARADE_FAULT_SEED", fault_seed.c_str(), 1);
      if (!fault_plan.empty()) setenv("PARADE_FAULT_PLAN", fault_plan.c_str(), 1);
      // CLI flags mirror the env vars (the env route still works for programs
      // launched by other means); each rank's dump gets a .rankN suffix.
      if (saw_metrics) setenv("PARADE_METRICS", metrics_path.c_str(), 1);
      if (saw_trace) {
        setenv("PARADE_TRACE", "1", 1);
        setenv("PARADE_TRACE_OUT", trace_path.c_str(), 1);
      }
      execvp(argv[prog_at], argv + prog_at);
      std::perror("parade_run: execvp");
      _exit(127);
    }
    children.push_back(pid);
  }

  int exit_code = 0;
  for (const pid_t pid : children) {
    int status = 0;
    if (waitpid(pid, &status, 0) < 0) {
      std::perror("parade_run: waitpid");
      exit_code = 1;
      continue;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0 && exit_code == 0) {
      exit_code = WEXITSTATUS(status);
    }
    if (WIFSIGNALED(status) && exit_code == 0) {
      std::fprintf(stderr, "parade_run: node process killed by signal %d\n",
                   WTERMSIG(status));
      exit_code = 128 + WTERMSIG(status);
    }
  }
  return exit_code;
}
