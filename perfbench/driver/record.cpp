#include "record.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + k + "\": ";
}

void JsonObject::put(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  body_ += buf;
}

void JsonObject::put(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
}

void JsonObject::put(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
}

void JsonObject::put(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') body_ += '\\';
    if (c == '\n') {
      body_ += "\\n";
      continue;
    }
    body_ += c;
  }
  body_ += "\"";
}

void JsonObject::put_raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanLog::open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

double SpanLog::close(int id, Clock::time_point start) {
  const double s = seconds_since(start);
  if (enabled_ && id >= 0) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  return s;
}

std::string SpanLog::json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    JsonObject o;
    o.put("name", spans_[i].name);
    o.put("start_ns", static_cast<std::uint64_t>(spans_[i].start_ns));
    o.put("end_ns", static_cast<std::uint64_t>(spans_[i].end_ns));
    o.put_raw("parent", std::to_string(spans_[i].parent));
    if (i > 0) out += ", ";
    out += o.str();
  }
  return out + "]";
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<ThreadCpu> thread_cpu() {
  std::vector<ThreadCpu> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    ThreadCpu t;
    t.tid = std::atol(e->d_name);
    const std::string base = std::string("/proc/self/task/") + e->d_name;
    std::ifstream sched(base + "/schedstat");
    double run_ns = 0.0;
    if (sched >> run_ns) t.cpu_s = run_ns * 1e-9;
    // stat: "pid (comm) state ..." — fields after the closing paren, where
    // utime and stime are the 12th and 13th.
    std::ifstream stat(base + "/stat");
    std::string line;
    std::getline(stat, line);
    const std::size_t paren = line.rfind(')');
    if (paren != std::string::npos) {
      std::istringstream rest(line.substr(paren + 2));
      std::string field;
      for (int i = 1; i <= 13 && rest >> field; ++i) {
        if (i == 13) t.sys_s = std::stod(field) / tick;
      }
    }
    out.push_back(t);
  }
  closedir(dir);
  return out;
}

}  // namespace perfbench
