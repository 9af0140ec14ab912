// Out-of-process side of the serve workload: spawning qspr_serve. The
// benchmark talks to it with the library's own blocking NDJSON client,
// qspr::ShardClient (service/shard_client.hpp).
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// One qspr_serve child process. The constructor forks and execs the
/// binary with `--port 0 --port-file <port_file>` appended to `args` and
/// returns once the port file names the bound port. The destructor kills
/// and reaps a child that stop() did not already reap, so no run leaves a
/// daemon behind.
class ServeProcess {
 public:
  ServeProcess(const std::string& binary, const std::vector<std::string>& args,
               std::string port_file);
  ~ServeProcess();
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// SIGTERM (graceful drain) and wait for exit; returns the exit status,
  /// or -1 when the child died from a signal.
  int stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::string port_file_;
};

}  // namespace perfbench
