#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Config Config::parse(const std::string& text) {
  Config config;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ';')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("config item '" + item + "' is not key=value");
    }
    config.values_[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return config;
}

const std::string& Config::get_string(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::invalid_argument("config is missing key '" + key + "'");
  }
  return it->second;
}

std::int64_t Config::get_int(const std::string& key) const {
  const std::string& text = get_string(key);
  std::size_t used = 0;
  const std::int64_t value = std::stoll(text, &used);
  if (used != text.size()) {
    throw std::invalid_argument("config " + key + "='" + text + "' is not an integer");
  }
  return value;
}

double Config::get_double(const std::string& key) const {
  const std::string& text = get_string(key);
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size()) {
    throw std::invalid_argument("config " + key + "='" + text + "' is not a number");
  }
  return value;
}

std::vector<std::string> Config::get_list(const std::string& key) const {
  std::vector<std::string> out;
  std::stringstream in(get_string(key));
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(item);
  if (out.empty()) throw std::invalid_argument("config " + key + " is an empty list");
  return out;
}

std::vector<int> Config::get_int_list(const std::string& key) const {
  std::vector<int> out;
  for (const std::string& item : get_list(key)) out.push_back(std::stoi(item));
  return out;
}

double children_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string fmt_g17(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string host_fingerprint_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string quoted_cpu;
  for (const char c : cpu) {
    if (c == '"' || c == '\\') quoted_cpu += '\\';
    quoted_cpu += c;
  }
  std::ostringstream out;
  out << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"cpu\":\""
      << quoted_cpu << "\",\"compiler\":\"" << PERFBENCH_COMPILER
      << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
      << "\",\"MBUS_NATIVE\":\"" << PERFBENCH_MBUS_NATIVE
      << "\",\"MBUS_NO_OBS\":\"" << PERFBENCH_MBUS_NO_OBS << "\"}";
  return out.str();
}

}  // namespace perfbench
