#include "serve_client.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

/// Port written by the child, or 0 while the file is missing or still
/// being written (qspr_serve terminates the number with a newline).
int read_port_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  if (text.empty() || text.back() != '\n') return 0;
  return std::stoi(text);
}

}  // namespace

ServeProcess::ServeProcess(const std::string& binary,
                           const std::vector<std::string>& args,
                           std::string port_file)
    : port_file_(std::move(port_file)) {
  ::unlink(port_file_.c_str());
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  for (const char* extra : {"--port", "0", "--port-file"}) {
    argv_storage.emplace_back(extra);
  }
  argv_storage.push_back(port_file_);
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The daemon must not outlive a benchmark process that is killed outright.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((port_ = read_port_file(port_file_)) == 0) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("qspr_serve exited before listening: " + binary);
    }
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("qspr_serve did not write its port file");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ServeProcess::~ServeProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  ::unlink(port_file_.c_str());
}

int ServeProcess::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace perfbench
