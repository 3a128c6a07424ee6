#include "probe.hpp"

#include <cstdio>
#include <string_view>
#include <type_traits>

#include "common/fileio.hpp"

namespace deepbat::e2e {

namespace {

// Spans reserved per thread buffer up front, so recording does not
// reallocate in the common case (a traced replay grows it if needed).
constexpr std::size_t kSpansPerThread = std::size_t{1} << 18;

}  // namespace

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(kSpansPerThread);
    const std::lock_guard<std::mutex> lock(mu_);
    owned->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void SpanLog::record(const char* name, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t tenant,
                     std::int64_t seq) {
  Buffer& b = local();
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.tenant = tenant;
  s.seq = tenant >= 0 ? seq : b.next_seq++;
  s.parent = parent_.load(std::memory_order_relaxed);
  s.thread = b.thread;
  b.spans.push_back(s);
}

void SpanLog::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    b->spans.clear();
    b->next_seq = 0;
  }
}

std::vector<Span> SpanLog::collect() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void SpanLog::write_chrome(const std::string& path) const {
  const std::vector<Span> spans = collect();
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view name(s.name);
    const std::string_view cat = name.substr(0, name.find('.'));
    char id[48];
    if (s.top) {
      std::snprintf(id, sizeof(id), "top:%lld", static_cast<long long>(s.seq));
    } else if (s.tenant >= 0) {
      std::snprintf(id, sizeof(id), "%lld:%lld",
                    static_cast<long long>(s.tenant),
                    static_cast<long long>(s.seq));
    } else {
      std::snprintf(id, sizeof(id), "t%u#%lld", s.thread,
                    static_cast<long long>(s.seq));
    }
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": \"%s\", \"parent\": \"top:%u\"}}",
                  i > 0 ? ",\n" : "", s.name, static_cast<int>(cat.size()),
                  cat.data(), s.thread, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, id,
                  s.parent);
    out += buf;
  }
  out += "\n]}\n";
  write_file_atomic(path, out);
}

TopSpan::TopSpan(const char* name)
    : name_(name),
      start_ns_(SpanLog::instance().now_ns()),
      id_(SpanLog::instance().next_top_.fetch_add(1)),
      saved_parent_(SpanLog::instance().parent_.exchange(id_)) {}

TopSpan::~TopSpan() { stop(); }

double TopSpan::stop() {
  if (!open_) return seconds_;
  open_ = false;
  SpanLog& log = SpanLog::instance();
  const std::int64_t end_ns = log.now_ns();
  seconds_ = static_cast<double>(end_ns - start_ns_) * 1e-9;
  log.parent_.store(saved_parent_);
  if (log.on()) {
    SpanLog::Buffer& b = log.local();
    Span s;
    s.name = name_;
    s.start_ns = start_ns_;
    s.end_ns = end_ns;
    s.seq = id_;
    s.parent = saved_parent_;
    s.thread = b.thread;
    s.top = true;
    b.spans.push_back(s);
  }
  return seconds_;
}

TenantProbe::TenantProbe(core::DeepBatController& inner,
                         sim::TenantObserver* learner, std::int64_t tenant)
    : inner_(inner), learner_(learner), tenant_(tenant) {}

void TenantProbe::open_decision(std::int64_t now_ns) {
  if (open_) return;
  open_ = true;
  decision_start_ns_ = now_ns;
}

lambda::Config TenantProbe::close_decision(std::int64_t entry_ns,
                                           lambda::Config cfg) {
  SpanLog& log = SpanLog::instance();
  const std::int64_t end_ns = log.now_ns();
  ++finish_calls_;
  if (log.on()) {
    log.record("core.finish_tick", entry_ns, end_ns, tenant_, seq_);
    wait_us_.push_back(static_cast<double>(entry_ns - begin_exit_ns_) * 1e-3);
  }
  decision_us_.push_back(static_cast<double>(end_ns - decision_start_ns_) *
                         1e-3);
  open_ = false;
  ++seq_;
  return cfg;
}

void TenantProbe::on_tick(double now, const sim::SimResult& result) {
  SpanLog& log = SpanLog::instance();
  const std::int64_t entry_ns = log.now_ns();
  open_decision(entry_ns);
  ++on_tick_calls_;
  learner_->on_tick(now, result);
  if (log.on()) {
    log.record("learn.on_tick", entry_ns, log.now_ns(), tenant_, seq_);
  }
}

sim::SplitController::TickRequest TenantProbe::begin_tick(
    const workload::Trace& history, double now) {
  SpanLog& log = SpanLog::instance();
  const bool traced = log.on();
  const std::int64_t entry_ns = traced || !open_ ? log.now_ns() : 0;
  open_decision(entry_ns);
  ++begin_calls_;
  TickRequest request = inner_.begin_tick(history, now);
  if (traced) {
    begin_exit_ns_ = log.now_ns();
    log.record("core.begin_tick", entry_ns, begin_exit_ns_, tenant_, seq_);
  }
  return request;
}

lambda::Config TenantProbe::finish_tick(std::span<const float> encoding) {
  SpanLog& log = SpanLog::instance();
  const std::int64_t entry_ns = log.on() ? log.now_ns() : 0;
  return close_decision(entry_ns, inner_.finish_tick(encoding));
}

lambda::Config TenantProbe::finish_tick_scored(
    std::span<const float> encoding, std::span<const float> raw_predictions) {
  SpanLog& log = SpanLog::instance();
  const std::int64_t entry_ns = log.on() ? log.now_ns() : 0;
  return close_decision(entry_ns,
                        inner_.finish_tick_scored(encoding, raw_predictions));
}

// The runtime calls decide() only for tenants of a runtime without a batch
// encoder; the benchmark always registers one, so this path is not timed.
lambda::Config TenantProbe::decide(const workload::Trace& history,
                                   double now) {
  return inner_.decide(history, now);
}

void EncoderProbe::encode(std::span<const float> windows, std::size_t count,
                          std::span<float> out) {
  SpanLog& log = SpanLog::instance();
  if (!log.on()) {
    inner_.encode(windows, count, out);
    return;
  }
  const std::int64_t start_ns = log.now_ns();
  inner_.encode(windows, count, out);
  log.record("core.encode", start_ns, log.now_ns());
}

void ScorerProbe::score(std::span<const float> e1_rows, std::size_t count,
                        std::span<float> out) {
  SpanLog& log = SpanLog::instance();
  if (!log.on()) {
    inner_.score(e1_rows, count, out);
    return;
  }
  const std::int64_t start_ns = log.now_ns();
  inner_.score(e1_rows, count, out);
  log.record("core.score", start_ns, log.now_ns());
}

template <class F>
auto BackendProbe::forward(F&& call) const {
  calls_.fetch_add(1, std::memory_order_relaxed);
  SpanLog& log = SpanLog::instance();
  if (!log.on()) return call();
  const std::int64_t start_ns = log.now_ns();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    log.record("lambda.backend", start_ns, log.now_ns());
  } else {
    auto result = call();
    log.record("lambda.backend", start_ns, log.now_ns());
    return result;
  }
}

double BackendProbe::service_time(const lambda::Config& config,
                                  std::int64_t batch_size) const {
  return forward([&] { return inner_.service_time(config, batch_size); });
}

double BackendProbe::invocation_cost(const lambda::Config& config,
                                     double duration_s) const {
  return forward([&] { return inner_.invocation_cost(config, duration_s); });
}

double BackendProbe::cold_start(const lambda::Config& config) const {
  return forward([&] { return inner_.cold_start(config); });
}

double BackendProbe::cold_start_probability() const {
  return forward([&] { return inner_.cold_start_probability(); });
}

lambda::ConfigGrid BackendProbe::config_grid() const {
  return forward([&] { return inner_.config_grid(); });
}

void BackendProbe::validate(const lambda::Config& config) const {
  forward([&] { inner_.validate(config); });
}

}  // namespace deepbat::e2e
