#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/rng.hpp"

namespace perfbench {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

std::string render_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += json_escape(k);
  body_ += ':';
}

Json& Json::num(const std::string& k, double value) {
  key(k);
  body_ += render_number(value);
  return *this;
}

Json& Json::num(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += json_escape(value);
  return *this;
}

Json& Json::boolean(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& rendered) {
  key(k);
  body_ += rendered;
  return *this;
}

std::string json_array(const std::vector<std::string>& rendered) {
  std::string out = "[";
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    if (i != 0) out += ',';
    out += rendered[i];
  }
  return out + "]";
}

std::string json_numbers(const std::vector<double>& values) {
  std::vector<std::string> rendered;
  rendered.reserve(values.size());
  for (const double v : values) rendered.push_back(render_number(v));
  return json_array(rendered);
}

// --- tracing ----------------------------------------------------------

Trace& Trace::instance() {
  static Trace trace;
  return trace;
}

void Trace::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

bool Trace::write(const std::string& path, unsigned pid,
                  const std::string& process) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"tid\":0,\"args\":{\"name\":" << json_escape(process) << "}}";
  const std::lock_guard<std::mutex> lock(mutex_);
  char buf[64];
  for (const Span& s : spans_) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out << ",\n{\"name\":" << json_escape(s.name)
        << ",\"cat\":" << json_escape(layer) << ",\"ph\":\"X\",\"pid\":" << pid
        << ",\"tid\":" << s.tid;
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.begin_ns) / 1000.0);
    out << ",\"ts\":" << buf;
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.end_ns - s.begin_ns) / 1000.0);
    out << ",\"dur\":" << buf << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"req\":" << s.req;
    if (!s.args.empty()) out << ',' << s.args;
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

unsigned thread_index() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned index = next.fetch_add(1);
  return index;
}

namespace {

struct ThreadSpans {
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> reqs;
};

ThreadSpans& thread_spans() {
  thread_local ThreadSpans stack;
  return stack;
}

}  // namespace

SpanScope::SpanScope(const char* name, std::uint64_t req)
    : on_(Trace::instance().enabled()) {
  if (!on_) return;
  ThreadSpans& stack = thread_spans();
  span_.name = name;
  span_.id = Trace::instance().next_id();
  span_.parent = stack.ids.empty() ? 0 : stack.ids.back();
  span_.req = req != 0 ? req : (stack.reqs.empty() ? 0 : stack.reqs.back());
  span_.tid = thread_index();
  stack.ids.push_back(span_.id);
  stack.reqs.push_back(span_.req);
  span_.begin_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (!on_) return;
  span_.end_ns = now_ns();
  ThreadSpans& stack = thread_spans();
  stack.ids.pop_back();
  stack.reqs.pop_back();
  Trace::instance().record(std::move(span_));
}

void SpanScope::arg(const char* key, std::uint64_t value) {
  if (!on_) return;
  if (!span_.args.empty()) span_.args += ',';
  span_.args += json_escape(key) + ":" + std::to_string(value);
}

// --- checks -------------------------------------------------------------

std::vector<std::size_t> sample_indices(std::size_t size, std::size_t count,
                                        std::uint64_t seed) {
  std::vector<std::size_t> all(size);
  for (std::size_t i = 0; i < size; ++i) all[i] = i;
  prt::Xoshiro256 rng(seed);
  prt::shuffle(all.begin(), all.end(), rng);
  all.resize(std::min(count, size));
  std::sort(all.begin(), all.end());
  return all;
}

void Checks::fail(const std::string& what) {
  ++failures_;
  if (messages_.size() < 32) messages_.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::string Checks::render() const {
  std::vector<std::string> rendered;
  for (const std::string& m : messages_) rendered.push_back(json_escape(m));
  return json_array(rendered);
}

std::uint64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

int finish(const Options& opt, Json& result, const Checks& checks,
           unsigned pid, const std::string& process) {
  result.num("check_failures", checks.failures())
      .raw("check_messages", checks.render());
  std::ofstream out(opt.out, std::ios::trunc);
  out << result.render() << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 2;
  }
  if (!opt.trace.empty() &&
      !Trace::instance().write(opt.trace, pid, process)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace.c_str());
    return 2;
  }
  return checks.failures() == 0 ? 0 : 1;
}

}  // namespace perfbench
