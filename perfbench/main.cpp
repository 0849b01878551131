// perfbench: drives the bulk and service workloads and the per-layer
// drive through the library's public API and writes one JSON result
// file per invocation.  run.py builds this, runs it and turns the
// result files into the benchmark's metrics.
//
//   perfbench bulk    --seed N --threads W --out F (--seconds S | --iterations K) [--trace T]
//   perfbench service --seed N --threads W --out F --workdir D (--seconds S | --requests K) [--trace T]
//   perfbench layers  --seed N --threads W --out F --workdir D --trace T
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench {bulk|service|layers} --seed N --threads W "
               "--out FILE [--seconds S] [--iterations K] [--requests K] "
               "[--workdir DIR] [--trace FILE]\n");
  return 2;
}

bool parse_unsigned(const char* text, std::uint64_t& value) {
  char* end = nullptr;
  value = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Options;
  if (argc < 2) return usage();
  Options opt;
  opt.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--seed" && parse_unsigned(value, n)) {
      opt.seed = n;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--iterations" && parse_unsigned(value, n)) {
      opt.iterations = static_cast<unsigned>(n);
    } else if (flag == "--requests" && parse_unsigned(value, n)) {
      opt.requests = static_cast<unsigned>(n);
    } else if (flag == "--threads" && parse_unsigned(value, n) && n >= 1) {
      opt.threads = static_cast<unsigned>(n);
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else if (flag == "--out") {
      opt.out = value;
    } else if (flag == "--trace") {
      opt.trace = value;
    } else {
      std::fprintf(stderr, "bad option %s %s\n", flag.c_str(), value);
      return usage();
    }
  }
  if (opt.out.empty()) return usage();
  if (!opt.trace.empty()) perfbench::Trace::instance().enable();
  try {
    if (opt.mode == "bulk") return perfbench::run_bulk(opt);
    if (opt.mode == "service") return perfbench::run_service(opt);
    if (opt.mode == "layers") return perfbench::run_layers(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", opt.mode.c_str(), e.what());
    return 1;
  }
  return usage();
}
